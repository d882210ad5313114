"""Partition quality metrics: edge cut, balance, group mixing matrix."""

from __future__ import annotations

import numpy as np

from ..stats.joint import label_pair_counts

__all__ = ["edge_cut", "cut_fraction", "balance", "mixing_matrix"]


def edge_cut(table, assignment):
    """Number of edges whose endpoints fall into different partitions."""
    assignment = np.asarray(assignment, dtype=np.int64)
    return int(
        (assignment[table.tails] != assignment[table.heads]).sum()
    )


def cut_fraction(table, assignment):
    """Edge cut as a fraction of all edges."""
    if table.num_edges == 0:
        return 0.0
    return edge_cut(table, assignment) / table.num_edges


def balance(assignment, k=None):
    """Normalised maximum load: ``max_t s_t / (n / k)``.

    1.0 is perfectly balanced; larger values indicate skew.
    """
    assignment = np.asarray(assignment, dtype=np.int64)
    if assignment.size == 0:
        return 1.0
    if k is None:
        k = int(assignment.max()) + 1
    loads = np.bincount(assignment, minlength=k)
    return float(loads.max() / (assignment.size / k))


def mixing_matrix(table, assignment, k=None):
    """Edge counts between partition pairs: the ``W`` of Section 4.2.

    Returns the symmetric ``(k, k)`` matrix where entry ``(i, j)``,
    ``i != j``, counts edges between groups i and j (appearing in both
    symmetric slots), and ``(i, i)`` counts intra-group edges once.
    Groups outside ``[0, k)`` raise ``ValueError``.
    """
    counts = label_pair_counts(table.tails, table.heads, assignment, k)
    w = counts + counts.T
    np.fill_diagonal(w, counts.diagonal())
    return w.astype(np.float64)
