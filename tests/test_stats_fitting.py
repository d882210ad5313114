"""Tests for distribution fitting helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.prng import RandomStream
from repro.stats import (
    PowerLaw,
    empirical_degree_distribution,
    fit_power_law_exponent,
    rescale_degree_sequence,
)


class TestFitPowerLawExponent:
    def test_recovers_known_exponent(self):
        stream = RandomStream(1, "fit")
        dist = PowerLaw(2.5, 2, 500)
        sample = dist.sample_values(stream, np.arange(200_000))
        gamma = fit_power_law_exponent(sample, xmin=2)
        assert abs(gamma - 2.5) < 0.15

    def test_filters_below_xmin(self):
        values = [1] * 100 + [10, 20, 30]
        gamma_all = fit_power_law_exponent(values, xmin=1)
        gamma_tail = fit_power_law_exponent(values, xmin=10)
        assert gamma_all != gamma_tail

    def test_empty_after_filter_raises(self):
        with pytest.raises(ValueError):
            fit_power_law_exponent([1, 2, 3], xmin=10)

    def test_all_equal_sample_finite(self):
        # With the xmin - 1/2 correction the estimator stays finite even
        # for a point-mass sample (it returns a steep exponent).
        gamma = fit_power_law_exponent([1, 1, 1], xmin=1)
        assert np.isfinite(gamma)
        assert gamma > 2.0


class TestEmpiricalDegreeDistribution:
    def test_counts(self):
        dist = empirical_degree_distribution([0, 1, 1, 3])
        assert np.allclose(dist.pmf(), [0.25, 0.5, 0.0, 0.25])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            empirical_degree_distribution([1, -2])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            empirical_degree_distribution([])


class TestRescaleDegreeSequence:
    def test_length_and_parity(self, stream):
        resampled = rescale_degree_sequence([2, 3, 3, 4], 101, stream)
        assert resampled.size == 101
        assert int(resampled.sum()) % 2 == 0

    def test_preserves_distribution_shape(self, stream):
        original = np.array([1] * 500 + [10] * 500)
        resampled = rescale_degree_sequence(original, 50_000, stream)
        ones = (resampled == 1).mean()
        tens = (resampled == 10).mean()
        assert abs(ones - 0.5) < 0.02
        assert abs(tens - 0.5) < 0.02

    def test_rejects_zero_target(self, stream):
        with pytest.raises(ValueError):
            rescale_degree_sequence([1, 2], 0, stream)

