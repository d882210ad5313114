"""LDG streaming graph partitioning (Stanton & Kliot, KDD 2012).

LDG ("Linear Deterministic Greedy") streams nodes with their edges and
places each node into the partition holding most of its already-placed
neighbours, weighted by the partition's remaining capacity
``(1 - s_t / q_t)``.  SBM-Part (Section 4.2) is "a variation of LDG":
it replaces the neighbour-count objective with the Frobenius-norm
objective against an SBM target.

This implementation is the *original* LDG.  The paper's evaluation uses
it twice: to create the ground-truth labelling of the input graphs
("we partitioned each of the graphs g into k groups ... using LDG"),
and — in our ablations — as a matching baseline.

The per-node loop runs on the shared streaming-placement kernel
(:mod:`repro.core.matching.kernel`): neighbour counts come from the
streaming counts matrix, buffers are preallocated, and a compiled C
loop takes over when a system compiler is available.  The original
loop is frozen in ``tests/legacy_matching.py`` and the kernel
is pinned byte-for-byte against it by ``tests/golden/matching/``.
"""

from __future__ import annotations

__all__ = ["ldg_partition"]


def ldg_partition(table, capacities, order=None, tie_stream=None,
                  impl="auto", prep=None):
    """Partition the nodes of ``table`` into groups of given capacities.

    Parameters
    ----------
    table:
        :class:`~repro.tables.EdgeTable` (monopartite).
    capacities:
        ``(k,)`` integer capacity per partition; must sum to >= n.
    order:
        node arrival order (default: natural order ``0..n-1``).
    tie_stream:
        :class:`~repro.prng.RandomStream` used to break score ties;
        deterministic round-robin when omitted.
    impl:
        kernel implementation: "auto" (default), "numpy" or "c".
    prep:
        optional precomputed
        :class:`~repro.core.matching.kernel.MatchPrep` for this
        ``(table, order)`` pair.

    Returns
    -------
    (n,) int64 partition label per node.
    """
    from ..core.matching.kernel import ldg_stream

    return ldg_stream(
        table, capacities, order=order, tie_stream=tie_stream,
        impl=impl, prep=prep,
    )
