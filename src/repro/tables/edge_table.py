"""Edge Tables: the paper's ``[id, tailId, headId]`` relation.

One Edge Table (ET) per edge type (Section 4.1).  Edge ids are dense
``0..m-1``; tail/head hold node ids of the (possibly different) endpoint
types.  The ET is the universal graph representation in this codebase:
every structure generator returns one and SBM-Part consumes one.
"""

from __future__ import annotations

import numpy as np

from .ranged import EdgeRows

__all__ = ["EdgeTable", "bucket_order", "csr_arrays"]

def bucket_order(keys, num_buckets):
    """Stable order of integer ``keys`` in ``[0, num_buckets)``.

    Equal to ``np.argsort(keys, kind="stable")`` but linear in the
    number of keys: an LSD radix sort over 16-bit digits, each digit
    one stable argsort of a ``uint16`` array, which numpy radix-sorts.
    That is one pass when ``num_buckets <= 65536`` and
    ``ceil(log2(num_buckets) / 16)`` passes beyond.

    >>> bucket_order(np.array([3, 1, 3, 0, 1]), 4).tolist()
    [3, 1, 4, 0, 2]
    """
    # Digit d of a key is its d-th little-endian 16-bit word: a strided
    # view, so no pass copies or shifts the int64 keys.
    digits = np.ascontiguousarray(keys, dtype="<i8").view("<u2")
    digits = digits.reshape(-1, 4)
    order = np.argsort(digits[:, 0], kind="stable")
    d = 1
    while (num_buckets - 1) >> (16 * d) > 0:
        order = order[np.argsort(digits[order, d], kind="stable")]
        d += 1
    return order


def csr_arrays(src, dst, num_nodes, symmetric=False):
    """CSR ``(indptr, neighbors)`` of the pairs ``src[i] -> dst[i]``,
    and with ``symmetric`` also of the reversed pairs after them.

    ``neighbors[indptr[v]:indptr[v + 1]]`` lists the ``dst`` of every
    pair leaving ``v`` in input order (then, with ``symmetric``, the
    ``src`` of every pair entering it); both arrays are int64.  Every
    ``src`` (and with ``symmetric`` every ``dst``) must lie in ``[0,
    num_nodes)``: anything else is a ``ValueError``.

    Built in O(m + n) by the compiled counting scatter of
    :mod:`repro.structure._ckernel`; its numpy twin, run under
    ``REPRO_NO_CKERNEL`` or without a compiler, is ``bincount`` + a
    stable :func:`bucket_order` + a gather.

    >>> [a.tolist() for a in csr_arrays([1, 0, 1], [2, 1, 0], 3)]
    [[0, 1, 3, 3], [1, 2, 0]]
    """
    # repro.structure imports this module: bind the loader at call time.
    from ..structure import _ckernel

    src = np.ascontiguousarray(src, dtype=np.int64)
    dst = np.ascontiguousarray(dst, dtype=np.int64)
    if src.ndim != 1 or src.shape != dst.shape:
        raise ValueError("src and dst must be 1-d and of one length")
    for ids in (src, dst) if symmetric else (src,):
        # Negative ids wrap to values >= num_nodes: one max checks both.
        if ids.size and ids.view(np.uint64).max() >= num_nodes:
            raise ValueError(
                f"node ids must lie in [0, num_nodes) = [0, {num_nodes})"
            )
    kernel = _ckernel.load_structure_ckernel()
    if kernel is not None:
        return kernel.csr_fill(src, dst, num_nodes, symmetric)
    if symmetric:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=num_nodes), out=indptr[1:])
    return indptr, dst[bucket_order(src, num_nodes)]


class EdgeTable(EdgeRows):
    """A columnar edge list with dense edge ids.

    Parameters
    ----------
    name:
        edge type name, e.g. ``"knows"``.
    tails, heads:
        1-D integer arrays of endpoint node ids (same length).
    num_tail_nodes, num_head_nodes:
        sizes of the endpoint id spaces.  For a monopartite edge type the
        two are equal; defaults are inferred from the data when omitted.
    directed:
        whether edge orientation is meaningful.  Undirected tables treat
        ``(u, v)`` and ``(v, u)`` as the same edge in deduplication and
        degree computations.
    """

    __slots__ = (
        "name",
        "tails",
        "heads",
        "num_tail_nodes",
        "num_head_nodes",
        "directed",
    )

    def __init__(
        self,
        name,
        tails,
        heads,
        num_tail_nodes=None,
        num_head_nodes=None,
        directed=False,
    ):
        tails = np.ascontiguousarray(tails, dtype=np.int64)
        heads = np.ascontiguousarray(heads, dtype=np.int64)
        if tails.ndim != 1 or heads.ndim != 1:
            raise ValueError(f"ET {name!r}: tails/heads must be 1-D")
        if tails.shape != heads.shape:
            raise ValueError(
                f"ET {name!r}: tails and heads lengths differ "
                f"({tails.shape[0]} vs {heads.shape[0]})"
            )
        if tails.size and (tails.min() < 0 or heads.min() < 0):
            raise ValueError(f"ET {name!r}: node ids must be nonnegative")
        inferred_tail = int(tails.max()) + 1 if tails.size else 0
        inferred_head = int(heads.max()) + 1 if heads.size else 0
        if num_tail_nodes is None:
            num_tail_nodes = max(inferred_tail, inferred_head)
        if num_head_nodes is None:
            num_head_nodes = num_tail_nodes
        if inferred_tail > num_tail_nodes or inferred_head > num_head_nodes:
            raise ValueError(
                f"ET {name!r}: node ids exceed the declared id space"
            )
        self.name = str(name)
        self.tails = tails
        self.heads = heads
        self.num_tail_nodes = int(num_tail_nodes)
        self.num_head_nodes = int(num_head_nodes)
        self.directed = bool(directed)

    # -- basic protocol ------------------------------------------------------

    def __len__(self):
        return len(self.tails)

    @property
    def ids(self):
        """The implicit dense edge id column ``0..m-1``."""
        return np.arange(len(self), dtype=np.int64)

    def to_edge_table(self):
        """Already resident: itself."""
        return self

    def __repr__(self):
        kind = "directed" if self.directed else "undirected"
        return (
            f"EdgeTable(name={self.name!r}, m={len(self)}, "
            f"n_tail={self.num_tail_nodes}, n_head={self.num_head_nodes}, "
            f"{kind})"
        )

    def __eq__(self, other):
        if not isinstance(other, EdgeTable):
            return NotImplemented
        return (
            self.name == other.name
            and self.directed == other.directed
            and self.num_tail_nodes == other.num_tail_nodes
            and self.num_head_nodes == other.num_head_nodes
            and np.array_equal(self.tails, other.tails)
            and np.array_equal(self.heads, other.heads)
        )

    def rows(self):
        """Iterate ``(id, tailId, headId)`` rows."""
        for i in range(len(self)):
            yield i, int(self.tails[i]), int(self.heads[i])

    def read_range(self, start, stop):
        """``(tails, heads)`` of edge ids ``[start, stop)`` as
        zero-copy views."""
        start, stop = self.check_range(start, stop)
        return self.tails[start:stop], self.heads[start:stop]

    # -- degree and adjacency --------------------------------------------------

    def out_degrees(self):
        """Degree of each tail-side node (out-degree when directed)."""
        return np.bincount(self.tails, minlength=self.num_tail_nodes).astype(
            np.int64
        )

    def in_degrees(self):
        """Degree of each head-side node (in-degree when directed)."""
        return np.bincount(self.heads, minlength=self.num_head_nodes).astype(
            np.int64
        )

    def degrees(self):
        """Total degree per node (undirected view; monopartite only)."""
        n = self.num_nodes
        deg = np.bincount(self.tails, minlength=n)
        deg += np.bincount(self.heads, minlength=n)
        if not self.directed:
            # Self loops were counted twice above, which matches the
            # standard undirected degree convention, so nothing to fix.
            pass
        return deg.astype(np.int64)

    def adjacency_csr(self):
        """Undirected adjacency in CSR form ``(indptr, neighbors)``.

        Both endpoints index each edge, so every edge appears twice (once
        per direction).  A node's neighbours are listed as its tail-side
        edges in edge-id order, then its head-side edges in edge-id
        order.  Built in O(m + n) by :func:`csr_arrays`.
        """
        return csr_arrays(
            self.tails, self.heads, self.num_nodes, symmetric=True
        )

    # -- transformations -------------------------------------------------------

    def canonicalized(self):
        """Undirected canonical form: ``tail <= head``, sorted, dense ids."""
        lo = np.minimum(self.tails, self.heads)
        hi = np.maximum(self.tails, self.heads)
        order = np.lexsort((hi, lo))
        return EdgeTable(
            self.name,
            lo[order],
            hi[order],
            num_tail_nodes=self.num_tail_nodes,
            num_head_nodes=self.num_head_nodes,
            directed=self.directed,
        )

    def deduplicated(self, drop_self_loops=True):
        """Remove parallel edges (and optionally self loops).

        For undirected tables ``(u, v)`` and ``(v, u)`` collapse together.
        Structure generators that produce multigraphs (configuration
        model, RMAT) call this to deliver simple graphs.
        """
        if self.directed:
            lo, hi = self.tails, self.heads
        else:
            lo = np.minimum(self.tails, self.heads)
            hi = np.maximum(self.tails, self.heads)
        keys = lo * np.int64(self.num_head_nodes) + hi
        if drop_self_loops and not self.is_bipartite:
            keep = lo != hi
            keys = keys[keep]
            lo, hi = lo[keep], hi[keep]
        _, first = np.unique(keys, return_index=True)
        first.sort()
        return EdgeTable(
            self.name,
            lo[first],
            hi[first],
            num_tail_nodes=self.num_tail_nodes,
            num_head_nodes=self.num_head_nodes,
            directed=self.directed,
        )

    def relabeled(self, tail_mapping, head_mapping=None):
        """Apply node-id mappings to endpoints.

        ``head_mapping`` defaults to ``tail_mapping`` for monopartite
        tables.  This is how a matching ``f`` is applied to a structure.
        """
        tail_mapping = np.asarray(tail_mapping, dtype=np.int64)
        if head_mapping is None:
            head_mapping = tail_mapping
        else:
            head_mapping = np.asarray(head_mapping, dtype=np.int64)
        return EdgeTable(
            self.name,
            tail_mapping[self.tails],
            head_mapping[self.heads],
            num_tail_nodes=len(tail_mapping),
            num_head_nodes=len(head_mapping),
            directed=self.directed,
        )

    def subsample(self, edge_ids):
        """Keep only the listed edge ids (re-densified)."""
        ids = np.asarray(edge_ids, dtype=np.int64)
        return EdgeTable(
            self.name,
            self.tails[ids],
            self.heads[ids],
            num_tail_nodes=self.num_tail_nodes,
            num_head_nodes=self.num_head_nodes,
            directed=self.directed,
        )

    def head_rows(self, n=5):
        """First ``n`` rows as tuples, for display."""
        return [(i, int(self.tails[i]), int(self.heads[i]))
                for i in range(min(n, len(self)))]
