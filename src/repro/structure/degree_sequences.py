"""Degree-sequence sampling shared by the configuration-model family.

LFR, BTER and Darwini all start from a sampled degree sequence (usually
power-law with an average-degree constraint).  This module centralises
that sampling plus the calibration tricks: solving for the power-law
cut-off that achieves a target mean degree, and drawing sequences with a
hard maximum degree.
"""

from __future__ import annotations

import numpy as np

from ..stats import PowerLaw

__all__ = [
    "degree_sequence_problem",
    "powerlaw_degree_sequence",
    "sample_degrees",
    "solve_powerlaw_xmin",
    "expected_mean",
]


def degree_sequence_problem(params, n):
    """``node_count_problem`` of the degree-sequence generators: a law
    capped at ``n - 1`` has no cut-off with a mean above the cap."""
    if "degrees" in params:
        size = len(params["degrees"])
        if size != n:
            return f"has a degree sequence of {size} nodes, got {n}"
        return None
    avg_degree = params.get("avg_degree", 20)
    if 0 < n <= avg_degree:
        return f"needs more than avg_degree={avg_degree} nodes, got {n}"
    return None


def sample_degrees(params, n, stream):
    """The degree sequence of BTER / Darwini ``params``: explicit
    ``degrees``, or a power law (``gamma`` / ``avg_degree`` /
    ``max_degree``, defaults 2 / 20 / 50)."""
    if "degrees" in params:
        degrees = np.asarray(params["degrees"], dtype=np.int64)
        if degrees.size != n:
            raise ValueError(
                f"degree sequence length {degrees.size} != n {n}"
            )
        return degrees
    return powerlaw_degree_sequence(
        n, params.get("gamma", 2.0), params.get("avg_degree", 20),
        params.get("max_degree", 50), stream.substream("degrees"),
    )


def expected_mean(gamma, xmin, xmax):
    """Mean of the discrete power law on ``[xmin, xmax]``."""
    return PowerLaw(gamma, xmin, xmax).mean_value()


def solve_powerlaw_xmin(gamma, target_mean, xmax):
    """Find the ``xmin`` whose power law on ``[xmin, xmax]`` has mean
    closest to ``target_mean``.

    The mean is increasing in ``xmin``, so a linear scan with early exit
    suffices (``xmax`` is small in all our configurations, e.g. 50).

    Raises
    ------
    ValueError
        when no cut-off can reach the target mean (target above ``xmax``).
    """
    if target_mean > xmax:
        raise ValueError(
            f"target mean degree {target_mean} exceeds max degree {xmax}"
        )
    best_xmin, best_err = 1, float("inf")
    for xmin in range(1, xmax + 1):
        err = abs(expected_mean(gamma, xmin, xmax) - target_mean)
        if err < best_err:
            best_xmin, best_err = xmin, err
        elif expected_mean(gamma, xmin, xmax) > target_mean:
            break
    return best_xmin


def powerlaw_degree_sequence(
    n, gamma, avg_degree, max_degree, stream, min_degree=None
):
    """Sample ``n`` degrees from a power law hitting a target average.

    This mirrors the LFR benchmark's degree model: exponent ``gamma``
    (paper evaluation uses the LFR default 2), maximum degree
    ``max_degree`` (50 in the paper), and average degree ``avg_degree``
    (20 in the paper) achieved by solving for the lower cut-off.

    Parameters
    ----------
    n:
        number of nodes.
    gamma:
        power-law exponent (>1).
    avg_degree:
        target mean degree.
    max_degree:
        hard cap on sampled degrees.
    stream:
        :class:`~repro.prng.RandomStream` for the draws.
    min_degree:
        lower cut-off; solved from ``avg_degree`` when omitted.

    Returns
    -------
    (n,) int64 array with an even sum.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if gamma <= 1:
        raise ValueError("gamma must exceed 1")
    if max_degree >= n:
        max_degree = n - 1
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1 (and n >= 2)")
    if min_degree is None:
        min_degree = solve_powerlaw_xmin(gamma, avg_degree, max_degree)
    dist = PowerLaw(gamma, min_degree, max_degree)
    degrees = dist.sample_values(stream, np.arange(n, dtype=np.int64))
    if int(degrees.sum()) % 2 == 1:
        bump = int(stream.randint(np.int64(n), 0, n))
        degrees[bump] += 1
        if degrees[bump] > max_degree:
            degrees[bump] -= 2
    return degrees
