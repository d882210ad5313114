"""Distribution comparison metrics for the evaluation (Figures 3 and 4).

The paper compares the *expected* joint distribution ``P(X, Y)`` with the
*observed* ``P'(X, Y)`` after matching, by plotting both CDFs over the
value pairs sorted by decreasing expected probability.  This module
computes exactly those sorted-CDF series plus scalar summary metrics
(Kolmogorov-Smirnov distance on the sorted CDFs, L1 / total-variation on
the pmfs, Frobenius distance on the matrices).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CdfComparison",
    "compare_joints",
    "ks_distance",
    "l1_distance",
    "total_variation",
    "frobenius_distance",
    "jensen_shannon",
]


def ks_distance(cdf_a, cdf_b):
    """Maximum absolute difference between two aligned CDF series."""
    a = np.asarray(cdf_a, dtype=np.float64)
    b = np.asarray(cdf_b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("CDF series must have the same shape")
    if a.size == 0:
        return 0.0
    return float(np.abs(a - b).max())


def l1_distance(pmf_a, pmf_b):
    """Sum of absolute pmf differences (twice the total variation)."""
    a = np.asarray(pmf_a, dtype=np.float64)
    b = np.asarray(pmf_b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("pmf series must have the same shape")
    return float(np.abs(a - b).sum())


def total_variation(pmf_a, pmf_b):
    """Total variation distance ``0.5 * L1``."""
    return 0.5 * l1_distance(pmf_a, pmf_b)


def frobenius_distance(mat_a, mat_b):
    """Frobenius norm of the matrix difference (SBM-Part's objective)."""
    a = np.asarray(mat_a, dtype=np.float64)
    b = np.asarray(mat_b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("matrices must have the same shape")
    return float(np.linalg.norm(a - b, ord="fro"))


def jensen_shannon(pmf_a, pmf_b):
    """Jensen-Shannon divergence (base e), a smoothed symmetric KL."""
    a = np.asarray(pmf_a, dtype=np.float64)
    b = np.asarray(pmf_b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("pmf series must have the same shape")
    mid = (a + b) / 2.0

    def _kl(p, q):
        mask = p > 0
        return float((p[mask] * np.log(p[mask] / q[mask])).sum())

    return 0.5 * _kl(a, mid) + 0.5 * _kl(b, mid)


@dataclass
class CdfComparison:
    """The expected-vs-observed comparison the paper plots.

    Attributes
    ----------
    pairs:
        ``(n_pairs, 2)`` unordered value pairs, sorted by decreasing
        expected probability (the x axis of Figures 3 and 4).
    expected_pmf, observed_pmf:
        pmf series in that order.
    expected_cdf, observed_cdf:
        cumulative series in that order (the plotted curves).
    """

    pairs: np.ndarray
    expected_pmf: np.ndarray
    observed_pmf: np.ndarray
    expected_cdf: np.ndarray = field(init=False)
    observed_cdf: np.ndarray = field(init=False)

    def __post_init__(self):
        self.expected_cdf = np.cumsum(self.expected_pmf)
        self.observed_cdf = np.cumsum(self.observed_pmf)

    @property
    def ks(self):
        """KS distance between the two plotted CDFs."""
        return ks_distance(self.expected_cdf, self.observed_cdf)

    @property
    def l1(self):
        """L1 distance between the pmfs."""
        return l1_distance(self.expected_pmf, self.observed_pmf)

    @property
    def tv(self):
        """Total-variation distance between the pmfs."""
        return total_variation(self.expected_pmf, self.observed_pmf)

    @property
    def js(self):
        """Jensen-Shannon divergence between the pmfs."""
        return jensen_shannon(self.expected_pmf, self.observed_pmf)

    def series(self, points=None):
        """Return ``(x, expected_cdf, observed_cdf)`` optionally subsampled.

        Useful for printing a bench table without emitting thousands of
        rows; ``points`` evenly-spaced positions are kept (always
        including the last).
        """
        n = len(self.expected_cdf)
        if points is None or points >= n:
            idx = np.arange(n)
        else:
            idx = np.unique(
                np.concatenate(
                    [np.linspace(0, n - 1, points).astype(np.int64), [n - 1]]
                )
            )
        return idx, self.expected_cdf[idx], self.observed_cdf[idx]

    def summary(self):
        """Scalar metrics as a plain dict (docs/reproduction.md tables)."""
        return {"ks": self.ks, "l1": self.l1, "tv": self.tv, "js": self.js}


def compare_joints(expected, observed):
    """Build the paper's sorted-CDF comparison from two joints.

    Parameters
    ----------
    expected, observed:
        :class:`~repro.stats.joint.JointDistribution` objects with the
        same number of categories.

    Returns
    -------
    CdfComparison
        with pairs sorted by decreasing *expected* probability, which is
        the convention of Figures 3 and 4 ("sorted by decreasing
        probability in the expected CDF, for both distributions").
    """
    if expected.k != observed.k:
        raise ValueError(
            f"joint distributions have different k: {expected.k} vs {observed.k}"
        )
    pairs, exp_pmf = expected.pair_pmf()
    _, obs_pmf = observed.pair_pmf()
    order = np.argsort(-exp_pmf, kind="stable")
    return CdfComparison(
        pairs=pairs[order],
        expected_pmf=exp_pmf[order],
        observed_pmf=obs_pmf[order],
    )
