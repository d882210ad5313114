"""Bipartite SBM-Part (paper Section 4.2, closing remark).

"A small variation of SBM-Part can also be applied to bi-partite
graphs, since the SBM can model this type of graphs as well.  If the
bi-partite graph is between two different node types, the input would
contain two PTs instead of one."

Both sides stream together (interleaved by the arrival order over the
union of node ids); the target is the (k_tail, k_head) edge-count matrix
``m P(X, Y)`` and placing a node only perturbs one row (tail side) or
one column (head side) of the current-count matrix.

The interleaved loop runs on the shared streaming-placement kernel
(:mod:`repro.core.matching.kernel`), which maintains
``current - target`` incrementally per touched row/column and reads
placed-neighbour counts from per-side streaming counts matrices; the
original loop is frozen in ``tests/legacy_matching.py`` and
pinned byte-for-byte by ``tests/golden/matching/``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import bipartite_stream
from .sbm_part import _mapping_from_assignment
from .targets import bipartite_edge_count_target

__all__ = ["BipartiteMatchResult", "bipartite_sbm_part_match"]


@dataclass
class BipartiteMatchResult:
    """Outcome of a bipartite SBM-Part run."""

    tail_assignment: np.ndarray
    head_assignment: np.ndarray
    tail_mapping: np.ndarray
    head_mapping: np.ndarray
    target: np.ndarray
    achieved: np.ndarray

    @property
    def frobenius_error(self):
        return float(
            np.linalg.norm(self.achieved - self.target, ord="fro")
        )


def bipartite_sbm_part_match(
    tail_ptable,
    head_ptable,
    joint_matrix,
    table,
    order=None,
    capacity_weighting=True,
):
    """Match two PTs to the two sides of a bipartite structure.

    Parameters
    ----------
    tail_ptable, head_ptable:
        the two property tables (paper: "two PTs instead of one").
    joint_matrix:
        ``(k_tail, k_head)`` target joint over (tail value, head value);
        normalised internally.
    table:
        bipartite :class:`~repro.tables.EdgeTable`.
    order:
        arrival order over the combined id space: ids ``0..nt-1`` are
        tail nodes, ``nt..nt+nh-1`` are head nodes.  Interleaved natural
        order when omitted.
    """
    nt, nh = table.num_tail_nodes, table.num_head_nodes
    tail_codes, _ = tail_ptable.codes()
    head_codes, _ = head_ptable.codes()
    tail_sizes = np.bincount(tail_codes)
    head_sizes = np.bincount(head_codes)
    kt, kh = tail_sizes.size, head_sizes.size
    target = bipartite_edge_count_target(joint_matrix, table.num_edges)
    if target.shape != (kt, kh):
        raise ValueError(
            f"joint is {target.shape}, but PTs induce ({kt}, {kh}) groups"
        )
    if len(tail_ptable) < nt or len(head_ptable) < nh:
        raise ValueError("property tables smaller than the structure sides")

    tail_assign, head_assign = bipartite_stream(
        table,
        tail_sizes,
        head_sizes,
        target,
        order=order,
        capacity_weighting=capacity_weighting,
    )

    tail_mapping = _mapping_from_assignment(tail_assign, tail_codes)
    head_mapping = _mapping_from_assignment(head_assign, head_codes)
    achieved = np.bincount(
        tail_assign[table.tails] * kh + head_assign[table.heads],
        minlength=kt * kh,
    ).reshape(kt, kh).astype(np.float64)
    return BipartiteMatchResult(
        tail_assignment=tail_assign,
        head_assignment=head_assign,
        tail_mapping=tail_mapping,
        head_mapping=head_mapping,
        target=target,
        achieved=achieved,
    )
