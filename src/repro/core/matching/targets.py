"""Target matrices for SBM-Part.

SBM-Part minimises the Frobenius distance between the evolving
inter-group edge-count matrix and a target ``W`` derived from the
user-supplied joint distribution ``P(X, Y)`` and the structure's edge
count ``m`` (Section 4.2).  The convention here matches
:func:`repro.partitioning.metrics.mixing_matrix`: a symmetric matrix
whose off-diagonal entries each hold the *full* count of edges between
the two groups and whose diagonal holds intra-group counts once.
"""

from __future__ import annotations

import numpy as np

__all__ = ["edge_count_target", "bipartite_edge_count_target"]


def edge_count_target(joint, num_edges):
    """Monopartite target ``W`` in mixing-matrix convention.

    ``W[i, i] = m P(i, i)`` and ``W[i, j] = 2 m P(i, j)`` for ``i != j``
    (the joint stores the unordered pair mass split across the two
    symmetric entries, so doubling restores the full pair count).
    """
    if num_edges < 0:
        raise ValueError("num_edges must be nonnegative")
    p = joint.matrix
    target = 2.0 * float(num_edges) * p
    diag = float(num_edges) * np.diag(p)
    np.fill_diagonal(target, diag)
    return target


def bipartite_edge_count_target(matrix, num_edges):
    """Bipartite target: ``W[i, j] = m P(i, j)`` (no symmetry assumed).

    ``matrix`` is a (k_tail, k_head) joint over (tail value, head value);
    it is normalised here.
    """
    p = np.asarray(matrix, dtype=np.float64)
    if p.ndim != 2:
        raise ValueError("bipartite joint must be a 2-D matrix")
    if not np.isfinite(p).all():
        raise ValueError("joint entries must be finite (NaN or inf found)")
    if (p < 0).any():
        raise ValueError("joint entries must be nonnegative")
    total = p.sum()
    if total <= 0:
        raise ValueError("joint must have positive mass")
    return float(num_edges) * (p / total)
