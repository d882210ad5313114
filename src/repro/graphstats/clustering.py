"""Clustering coefficients, including the per-degree profiles of Table 1.

``cc`` (global/average clustering), ``accd`` (average clustering per
degree — BTER's target) and ``ccdd`` (clustering distribution per degree
— Darwini's target) all derive from per-node triangle counts, computed
here with a numpy merge-based triangle counter that avoids materialising
a dense adjacency matrix.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "local_clustering",
    "average_clustering",
    "clustering_per_degree",
    "clustering_distribution_per_degree",
    "triangle_count",
]


def _neighbor_sets(table):
    """Sorted neighbour arrays per node (deduplicated, no self loops)."""
    n = table.num_nodes
    indptr, neighbors = table.adjacency_csr()
    sets = []
    for v in range(n):
        nbrs = neighbors[indptr[v]:indptr[v + 1]]
        nbrs = np.unique(nbrs)
        sets.append(nbrs[nbrs != v])
    return sets


def local_clustering(table):
    """Local clustering coefficient per node.

    ``c_v = 2 T_v / (d_v (d_v - 1))`` with ``T_v`` the number of edges
    among v's neighbours; nodes with degree < 2 get 0.

    Examples
    --------
    A triangle ``0-1-2`` with a pendant node ``3`` on ``0``:

    >>> from repro.tables import EdgeTable
    >>> tri = EdgeTable("e", [0, 1, 2, 0], [1, 2, 0, 3],
    ...                 num_tail_nodes=4)
    >>> [round(float(c), 4) for c in local_clustering(tri)]
    [0.3333, 1.0, 1.0, 0.0]
    """
    sets = _neighbor_sets(table)
    n = table.num_nodes
    coeffs = np.zeros(n)
    for v in range(n):
        nbrs = sets[v]
        d = nbrs.size
        if d < 2:
            continue
        links = 0
        nbr_set = sets[v]
        for u in nbrs:
            # Count neighbours of u that are also neighbours of v, with
            # u < w to count each link once.
            candidates = sets[u]
            links += np.intersect1d(
                candidates[candidates > u], nbr_set, assume_unique=True
            ).size
        coeffs[v] = 2.0 * links / (d * (d - 1))
    return coeffs


def average_clustering(table):
    """Mean local clustering coefficient over all nodes.

    >>> from repro.tables import EdgeTable
    >>> tri = EdgeTable("e", [0, 1, 2, 0], [1, 2, 0, 3],
    ...                 num_tail_nodes=4)
    >>> round(average_clustering(tri), 4)
    0.5833
    """
    coeffs = local_clustering(table)
    return float(coeffs.mean()) if coeffs.size else 0.0


def clustering_per_degree(table):
    """BTER's target: average clustering coefficient per degree.

    Returns
    -------
    (degrees, mean_cc):
        degrees with at least one node, and the mean local clustering of
        the nodes of that degree.

    Examples
    --------
    >>> from repro.tables import EdgeTable
    >>> tri = EdgeTable("e", [0, 1, 2, 0], [1, 2, 0, 3],
    ...                 num_tail_nodes=4)
    >>> degrees, mean_cc = clustering_per_degree(tri)
    >>> degrees.tolist(), [round(float(c), 4) for c in mean_cc]
    ([1, 2, 3], [0.0, 1.0, 0.3333])
    """
    coeffs = local_clustering(table)
    degrees = table.degrees()
    # Clustering uses the simple-graph degree (unique neighbours).
    max_d = int(degrees.max()) if degrees.size else 0
    sums = np.zeros(max_d + 1)
    counts = np.zeros(max_d + 1, dtype=np.int64)
    np.add.at(sums, degrees, coeffs)
    np.add.at(counts, degrees, 1)
    present = counts > 0
    dvals = np.arange(max_d + 1, dtype=np.int64)[present]
    return dvals, sums[present] / counts[present]


def clustering_distribution_per_degree(table, bins=10):
    """Darwini's target: the cc *distribution* within each degree.

    Returns a dict ``degree -> histogram`` where the histogram counts
    nodes of that degree whose local clustering falls into each of
    ``bins`` equal-width bins on [0, 1].

    Examples
    --------
    >>> from repro.tables import EdgeTable
    >>> tri = EdgeTable("e", [0, 1, 2, 0], [1, 2, 0, 3],
    ...                 num_tail_nodes=4)
    >>> hists = clustering_distribution_per_degree(tri, bins=2)
    >>> {d: h.tolist() for d, h in hists.items()}
    {1: [1, 0], 2: [0, 2], 3: [1, 0]}
    """
    coeffs = local_clustering(table)
    degrees = table.degrees()
    out = {}
    for d in np.unique(degrees):
        mask = degrees == d
        hist, _ = np.histogram(coeffs[mask], bins=bins, range=(0.0, 1.0))
        out[int(d)] = hist
    return out


def triangle_count(table):
    """Total number of triangles in the graph.

    >>> from repro.tables import EdgeTable
    >>> tri = EdgeTable("e", [0, 1, 2, 0], [1, 2, 0, 3],
    ...                 num_tail_nodes=4)
    >>> triangle_count(tri)
    1
    """
    coeffs = local_clustering(table)
    degrees = table.degrees().astype(np.float64)
    # Sum of per-node triangle counts = 3 * number of triangles.
    per_node = coeffs * degrees * (degrees - 1) / 2.0
    return int(round(per_node.sum() / 3.0))
