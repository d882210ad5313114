"""Joint distributions ``P(X, Y)`` over property values of edge endpoints.

The property-structure correlation at the heart of the paper is modelled
as "the probability of picking a random edge of the graph and observing
property values X and Y in its endpoints" (Section 4.2).  For undirected
edges this is a symmetric distribution over unordered pairs; we keep the
matrix symmetric with the off-diagonal mass split across ``(i, j)`` and
``(j, i)`` so that ``P.sum() == 1`` and ``P[i, j] == P[j, i]``.

This module provides construction (homophily models, empirical
measurement from a labelled graph), conversion to SBM edge-count and
edge-probability targets, and marginals.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "JointDistribution",
    "empirical_joint",
    "homophily_joint",
    "label_pair_counts",
]


class JointDistribution:
    """A symmetric joint distribution over pairs of category values.

    Parameters
    ----------
    matrix:
        ``(k, k)`` nonnegative array.  It is symmetrised (averaged with its
        transpose) and normalised to sum to 1.
    """

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"matrix must be square, got shape {m.shape}")
        if (m < 0).any():
            raise ValueError("matrix entries must be nonnegative")
        total = m.sum()
        if total <= 0:
            raise ValueError("matrix must have positive total mass")
        m = (m + m.T) / 2.0
        self.matrix = m / m.sum()

    @property
    def k(self):
        """Number of categories."""
        return self.matrix.shape[0]

    def marginal(self):
        """Marginal ``P(X)``: probability a random edge *endpoint* has value x.

        For a symmetric joint, the row sum gives the endpoint marginal.
        """
        return self.matrix.sum(axis=1)

    def pair_probability(self, i, j):
        """Probability of observing the unordered value pair ``{i, j}``.

        For ``i != j`` this is ``P[i, j] + P[j, i] = 2 P[i, j]``.
        """
        if i == j:
            return float(self.matrix[i, i])
        return float(2.0 * self.matrix[i, j])

    def pair_pmf(self):
        """Flattened pmf over the ``k (k + 1) / 2`` unordered pairs.

        Returns
        -------
        pairs:
            ``(n_pairs, 2)`` int array of ``(i, j)`` with ``i <= j``.
        pmf:
            matching probability vector (sums to 1).
        """
        k = self.k
        iu, ju = np.triu_indices(k)
        pmf = np.where(iu == ju, self.matrix[iu, ju], 2.0 * self.matrix[iu, ju])
        return np.stack([iu, ju], axis=1), pmf

    # -- SBM conversions ---------------------------------------------------

    def edge_count_target(self, num_edges):
        """Expected *edge counts* between groups for a graph with ``m`` edges.

        Returns the symmetric ``(k, k)`` matrix ``W`` where ``W[i, j]`` for
        ``i != j`` is the expected number of edges between groups i and j
        (so the unordered-pair count appears in full in both entries of the
        symmetric matrix divided evenly: ``W[i, j] = m * P[i, j]``), and
        ``W[i, i] = m * P[i, i]`` is the expected intra-group edge count.

        Frobenius distances computed on this convention are exactly twice
        the distance on unordered-pair counts for the off-diagonal block,
        which is a fixed scaling and does not change argmins.
        """
        if num_edges < 0:
            raise ValueError("num_edges must be nonnegative")
        return self.matrix * float(num_edges)

    def sbm_probabilities(self, group_sizes, num_edges):
        """Per-pair edge probabilities ``delta_ij`` of the SBM (paper §4.2).

        ``delta_ii = 2 m P(i, i) / (q_i (q_i - 1))`` and
        ``delta_ij = 2 m P(i, j) / (q_i q_j)`` for ``i != j``, clipped to
        ``[0, 1]``.

        Parameters
        ----------
        group_sizes:
            ``(k,)`` integer group sizes ``q_i``.
        num_edges:
            total number of edges ``m``.
        """
        q = np.asarray(group_sizes, dtype=np.float64)
        if q.shape != (self.k,):
            raise ValueError(
                f"group_sizes must have shape ({self.k},), got {q.shape}"
            )
        m = float(num_edges)
        # Unordered pair mass: P(i,j) + P(j,i) = 2 P(i,j), matching
        # the paper's delta_ij = 2mP(i,j)/(qi qj); the diagonal holds
        # intra-group pairs q_i (q_i - 1) / 2 with mass m P(i,i).
        # Same elementwise float64 operations as the former k x k
        # Python loop, computed as whole matrices.
        pairs = np.outer(q, q)
        np.fill_diagonal(pairs, q * (q - 1.0) / 2.0)
        mass = m * 2.0 * self.matrix
        np.fill_diagonal(mass, m * np.diagonal(self.matrix))
        delta = np.divide(
            mass,
            pairs,
            out=np.zeros_like(mass),
            where=pairs > 0,
        )
        return np.clip(delta, 0.0, 1.0)

    def condition_on(self, i):
        """Conditional ``P(Y | X = i)`` as a probability vector."""
        row = self.matrix[i]
        total = row.sum()
        if total <= 0:
            raise ValueError(f"category {i} has zero marginal mass")
        return row / total

    def __repr__(self):
        return f"JointDistribution(k={self.k})"


def empirical_joint(tails, heads, labels, k=None):
    """Measure the empirical joint ``P'(X, Y)`` of a labelled graph.

    This is the measurement step of the paper's evaluation: given an edge
    list and a per-node category label, count the observed value pairs on
    edges and normalise.

    Parameters
    ----------
    tails, heads:
        edge endpoint node-id arrays.
    labels:
        ``(n,)`` integer category per node id, each in ``[0, k)``
        (``ValueError`` otherwise).
    k:
        number of categories; inferred from ``labels`` when omitted.
    """
    counts = label_pair_counts(tails, heads, labels, k)
    # Each edge contributed 2 to the matrix total; JointDistribution
    # normalises, so the factor cancels.
    return JointDistribution(counts + counts.T)


def label_pair_counts(tails, heads, labels, k=None):
    """``(k, k)`` int64 counts of ``(labels[tail], labels[head])`` pairs.

    One ``np.bincount`` over the flattened pair codes.  Every label must
    lie in ``[0, k)`` (``k`` defaults to ``labels.max() + 1``); anything
    else is a ``ValueError`` naming the first bad label.

    >>> label_pair_counts([0, 1], [1, 2], [0, 1, 1]).tolist()
    [[0, 1], [0, 1]]
    """
    labels = np.asarray(labels, dtype=np.int64)
    tails = np.asarray(tails, dtype=np.int64)
    heads = np.asarray(heads, dtype=np.int64)
    if tails.shape != heads.shape:
        raise ValueError("tails and heads must have the same shape")
    if k is None:
        k = int(labels.max()) + 1 if labels.size else 1
    bad = (labels < 0) | (labels >= k)
    if bad.any():
        raise ValueError(
            f"label {int(labels[bad.argmax()])} is outside [0, k) "
            f"for k = {k}"
        )
    pairs = labels[tails] * k + labels[heads]
    return np.bincount(pairs, minlength=k * k).reshape(k, k)


def homophily_joint(marginal, affinity):
    """Build a homophilous joint from a marginal and an affinity knob.

    ``affinity`` in ``[0, 1]`` interpolates between independence
    (``affinity = 0``: ``P[i, j] = p_i p_j``) and perfect homophily
    (``affinity = 1``: all mass on the diagonal, proportional to the
    marginal).  This mirrors the "Persons from the same country are more
    likely to know each other" requirement of the running example.
    """
    p = np.asarray(marginal, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("marginal must be a non-empty 1-D sequence")
    if (p < 0).any() or p.sum() <= 0:
        raise ValueError("marginal must be a nonnegative vector with mass")
    if not 0.0 <= affinity <= 1.0:
        raise ValueError("affinity must lie in [0, 1]")
    p = p / p.sum()
    independent = np.outer(p, p)
    diagonal = np.diag(p)
    return JointDistribution((1.0 - affinity) * independent + affinity * diagonal)
