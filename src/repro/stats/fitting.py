"""Fitting helpers: estimate distribution parameters from observed data.

Benchmark designers rarely know the analytic form of their data; the
requirements section of the paper assumes users can supply *empirical*
degree distributions and property distributions observed in a real graph.
These helpers extract such empirical inputs and fit the standard
parametric families so the same shape can be regenerated at a different
scale.
"""

from __future__ import annotations

import numpy as np

from .distributions import Empirical

__all__ = [
    "fit_power_law_exponent",
    "empirical_degree_distribution",
    "rescale_degree_sequence",
]


def fit_power_law_exponent(values, xmin=1):
    """Maximum-likelihood power-law exponent (discrete approximation).

    Uses the Clauset-Shalizi-Newman continuous approximation with the
    standard ``xmin - 1/2`` correction:

        gamma = 1 + n / sum(ln(x_i / (xmin - 1/2)))

    Parameters
    ----------
    values:
        observed positive integers (e.g. node degrees).
    xmin:
        smallest value included in the fit.
    """
    x = np.asarray(values, dtype=np.float64)
    x = x[x >= xmin]
    if x.size == 0:
        raise ValueError(f"no values >= xmin ({xmin})")
    denominator = np.log(x / (xmin - 0.5)).sum()
    if denominator <= 0:
        raise ValueError("degenerate sample: all values equal xmin")
    return 1.0 + x.size / denominator


def empirical_degree_distribution(degrees):
    """Empirical distribution over degree values ``0..max_degree``."""
    d = np.asarray(degrees, dtype=np.int64)
    if d.size == 0:
        raise ValueError("need at least one degree")
    if (d < 0).any():
        raise ValueError("degrees must be nonnegative")
    return Empirical(np.bincount(d))


def rescale_degree_sequence(degrees, new_n, stream):
    """Resample a degree sequence to a different number of nodes.

    Draws ``new_n`` degrees i.i.d. from the empirical distribution of the
    input sequence, then fixes parity (sum of degrees must be even for a
    realisable multigraph) by incrementing one random node.

    Parameters
    ----------
    degrees:
        the observed sequence.
    new_n:
        desired number of nodes.
    stream:
        :class:`~repro.prng.RandomStream` driving the resampling.
    """
    if new_n < 1:
        raise ValueError("new_n must be >= 1")
    dist = empirical_degree_distribution(degrees)
    sample = dist.sample(stream, np.arange(new_n))
    if int(sample.sum()) % 2 == 1:
        bump = int(stream.randint(np.int64(new_n), 0, new_n))
        sample[bump] += 1
    return sample

