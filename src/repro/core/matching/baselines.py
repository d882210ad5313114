"""Baseline matchers for the ablation benchmarks.

``ldg_degree_match`` is literally LDG: it places each arriving node with
the neighbour-count objective, i.e. it optimises *locality* (edge cut)
rather than the Frobenius distance to the target joint.  Comparing it
against SBM-Part isolates the contribution of the paper's objective —
LDG clusters connected nodes into the same group, which maximises the
diagonal of the observed joint regardless of the requested off-diagonal
structure.
"""

from __future__ import annotations

import numpy as np

from .kernel import ldg_partition
from .sbm_part import _match_result

__all__ = ["ldg_degree_match", "greedy_label_match"]


def ldg_degree_match(ptable, joint, table, order=None, tie_stream=None):
    """Match with plain LDG placement (neighbour-count objective).

    The group capacities still come from the PT value counts, so the
    *marginal* of the observed joint is respected; only the pairwise
    structure is left to locality.
    """
    return _match_result(
        ptable, joint, table,
        lambda group_sizes, _target: ldg_partition(
            table, group_sizes, order=order, tie_stream=tie_stream
        ),
    )


def greedy_label_match(ptable, joint, table, order=None):
    """Degenerate matcher: fill groups in node-id order.

    Nodes ``0..q_0-1`` get value 0, the next ``q_1`` get value 1, and so
    on.  On structures whose node ids carry locality (R-MAT quadrants,
    LFR assignment order) this can look deceptively good, which is
    exactly why the ablation includes it.
    """
    n = table.num_nodes

    def fill(group_sizes, _target):
        assignment = np.empty(n, dtype=np.int64)
        assignment[
            np.arange(n) if order is None else np.asarray(order, np.int64)
        ] = np.repeat(np.arange(group_sizes.size), group_sizes)[:n]
        return assignment

    return _match_result(ptable, joint, table, fill)
