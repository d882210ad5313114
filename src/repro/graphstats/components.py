"""Connected components and distance-based metrics."""

from __future__ import annotations

import numpy as np

__all__ = [
    "connected_components",
    "largest_component_fraction",
    "approximate_diameter",
    "bfs_distances",
]


def connected_components(table):
    """Label connected components with union-find (path compression).

    Returns
    -------
    (labels, count):
        dense component label per node and the number of components.

    Examples
    --------
    An edge ``0-1`` plus an isolated node ``2``:

    >>> from repro.tables import EdgeTable
    >>> table = EdgeTable("e", [0], [1], num_tail_nodes=3)
    >>> labels, count = connected_components(table)
    >>> labels.tolist(), count
    ([0, 0, 1], 2)
    """
    n = table.num_nodes
    parent = np.arange(n, dtype=np.int64)

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for u, v in zip(table.tails, table.heads):
        ru, rv = find(int(u)), find(int(v))
        if ru != rv:
            parent[ru] = rv
    roots = np.array([find(i) for i in range(n)], dtype=np.int64)
    _, labels = np.unique(roots, return_inverse=True)
    count = int(labels.max()) + 1 if n else 0
    return labels.astype(np.int64), count


def largest_component_fraction(table):
    """Fraction of nodes in the largest connected component.

    >>> from repro.tables import EdgeTable
    >>> table = EdgeTable("e", [0], [1], num_tail_nodes=4)
    >>> largest_component_fraction(table)
    0.5
    """
    labels, count = connected_components(table)
    if count == 0:
        return 0.0
    sizes = np.bincount(labels)
    return float(sizes.max() / labels.size)


def bfs_distances(table, source):
    """BFS hop distances from ``source`` (-1 where unreachable).

    A path ``0-1-2`` plus an unreachable node ``3``:

    >>> from repro.tables import EdgeTable
    >>> path = EdgeTable("e", [0, 1], [1, 2], num_tail_nodes=4)
    >>> bfs_distances(path, 0).tolist()
    [0, 1, 2, -1]
    """
    n = table.num_nodes
    indptr, neighbors = table.adjacency_csr()
    dist = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    while frontier.size:
        level += 1
        candidates = []
        for v in frontier:
            candidates.append(neighbors[indptr[v]:indptr[v + 1]])
        if not candidates:
            break
        nxt = np.unique(np.concatenate(candidates))
        nxt = nxt[dist[nxt] < 0]
        if nxt.size == 0:
            break
        dist[nxt] = level
        frontier = nxt
    return dist


def approximate_diameter(table, samples=8, stream=None):
    """Lower-bound diameter estimate via double-sweep BFS.

    Runs BFS from ``samples`` pseudo-random sources, then from the
    farthest node found by each sweep, returning the maximum eccentricity
    observed — the standard cheap diameter estimate for large graphs.

    Examples
    --------
    >>> from repro.tables import EdgeTable
    >>> path = EdgeTable("e", [0, 1, 2], [1, 2, 3],
    ...                  num_tail_nodes=4)
    >>> approximate_diameter(path)
    3
    """
    n = table.num_nodes
    if n == 0 or table.num_edges == 0:
        return 0
    if stream is None:
        from ..prng import RandomStream

        stream = RandomStream(0, "diameter")
    best = 0
    sources = stream.randint(np.arange(samples, dtype=np.int64), 0, n)
    for s in np.unique(sources):
        d1 = bfs_distances(table, int(s))
        far = int(np.argmax(d1))
        best = max(best, int(d1.max()))
        d2 = bfs_distances(table, far)
        best = max(best, int(d2.max()))
    return best
