"""Numeric property generators.

Already vectorised pre-rewrite; the batched pass works in place on
the freshly drawn arrays and caches the Zipf cdf across shard calls
instead of rebuilding it per ``run_many``.
"""

from __future__ import annotations

import numpy as np

from .base import PropertyGenerator

__all__ = [
    "UniformIntGenerator",
    "UniformFloatGenerator",
    "NormalGenerator",
    "ZipfIntGenerator",
    "SequenceGenerator",
]


class UniformIntGenerator(PropertyGenerator):
    """Uniform integers in ``[low, high)``."""

    name = "uniform_int"
    access = "random"

    def parameter_names(self):
        return {"low", "high"}

    def _validate_params(self):
        low = self._params.get("low", 0)
        high = self._params.get("high")
        if high is not None and high <= low:
            raise ValueError("need low < high")

    def run_many(self, ids, stream, *dependency_arrays):
        high = self._params.get("high")
        if high is None:
            raise ValueError("UniformIntGenerator needs 'high'")
        low = int(self._params.get("low", 0))
        return stream.randint(
            np.asarray(ids, dtype=np.int64), low, int(high)
        )

    def output_dtype(self):
        return np.dtype(np.int64)


class UniformFloatGenerator(PropertyGenerator):
    """Uniform floats in ``[low, high)``."""

    name = "uniform_float"
    access = "random"

    def parameter_names(self):
        return {"low", "high"}

    def _validate_params(self):
        low = self._params.get("low", 0.0)
        high = self._params.get("high", 1.0)
        if high <= low:
            raise ValueError("need low < high")

    def run_many(self, ids, stream, *dependency_arrays):
        low = float(self._params.get("low", 0.0))
        high = float(self._params.get("high", 1.0))
        u = stream.uniform(np.asarray(ids, dtype=np.int64))
        # low + u * span, in place on the freshly drawn array.
        np.multiply(u, high - low, out=u)
        np.add(u, low, out=u)
        return u

    def output_dtype(self):
        return np.dtype(np.float64)


class NormalGenerator(PropertyGenerator):
    """Gaussian values, optionally clipped."""

    name = "normal"
    access = "random"

    def parameter_names(self):
        return {"mean", "std", "clip_low", "clip_high"}

    def _validate_params(self):
        std = self._params.get("std", 1.0)
        if std <= 0:
            raise ValueError("std must be positive")

    def run_many(self, ids, stream, *dependency_arrays):
        values = stream.normal(
            np.asarray(ids, dtype=np.int64),
            float(self._params.get("mean", 0.0)),
            float(self._params.get("std", 1.0)),
        )
        lo = self._params.get("clip_low")
        hi = self._params.get("clip_high")
        if lo is not None or hi is not None:
            np.clip(
                values,
                -np.inf if lo is None else lo,
                np.inf if hi is None else hi,
                out=values,
            )
        return values

    def output_dtype(self):
        return np.dtype(np.float64)


class ZipfIntGenerator(PropertyGenerator):
    """Zipf-distributed ranks ``1..k`` (heavy-tailed counts)."""

    name = "zipf_int"
    access = "random"

    def parameter_names(self):
        return {"exponent", "k"}

    def _validate_params(self):
        exponent = self._params.get("exponent", 1.0)
        if exponent <= 0:
            raise ValueError("exponent must be positive")
        k = self._params.get("k")
        if k is not None and k < 1:
            raise ValueError("k must be >= 1")
        self._cache = None

    def _cdf(self):
        k = int(self._params["k"])
        exponent = float(self._params.get("exponent", 1.0))
        cache = getattr(self, "_cache", None)
        if cache is not None and cache[0] == (k, exponent):
            return cache[1]
        ranks = np.arange(1, k + 1, dtype=np.float64)
        weights = ranks ** (-exponent)
        cdf = np.cumsum(weights / weights.sum())
        self._cache = ((k, exponent), cdf)
        return cdf

    def run_many(self, ids, stream, *dependency_arrays):
        if self._params.get("k") is None:
            raise ValueError("ZipfIntGenerator needs 'k'")
        codes = np.searchsorted(
            self._cdf(),
            stream.uniform(np.asarray(ids, dtype=np.int64)),
            side="right",
        )
        return (codes + 1).astype(np.int64)

    def output_dtype(self):
        return np.dtype(np.int64)


class SequenceGenerator(PropertyGenerator):
    """Deterministic sequence ``start + step * id`` (no randomness).

    Useful for surrogate keys and monotone timestamps.
    """

    name = "sequence"
    access = "random"

    def parameter_names(self):
        return {"start", "step"}

    def run_many(self, ids, stream, *dependency_arrays):
        start = int(self._params.get("start", 0))
        step = int(self._params.get("step", 1))
        return start + step * np.asarray(ids, dtype=np.int64)

    def output_dtype(self):
        return np.dtype(np.int64)
