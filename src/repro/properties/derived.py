"""Derived-value generators: pure functions of dependencies.

These carry irreducible per-row Python work (a user callable, a dict
probe), so the batched rewrite cannot remove the loop — it removes the
loop's *overhead*: iteration runs over ``tolist()`` scalars / zipped
columns into a list comprehension instead of indexing numpy arrays
element by element, and missing-key handling uses a single sentinel
``dict.get`` per row instead of two hash probes.
"""

from __future__ import annotations

import numpy as np

from .base import PropertyGenerator

__all__ = ["FormulaGenerator", "LookupGenerator"]

_MISSING = object()


class FormulaGenerator(PropertyGenerator):
    """Apply a user callable to the dependency values.

    Parameters (via ``initialize``)
    -------------------------------
    function:
        callable ``(*dependency_values) -> value`` applied per instance,
        or — with ``vectorized=True`` — ``(*dependency_arrays) -> array``.
    vectorized:
        whether ``function`` handles whole arrays (default False).
    dtype:
        output dtype tag for the table (default object).

    Note: the function receives no randomness, so it is trivially
    in-place-reproducible.
    """

    name = "formula"
    access = "random"

    def parameter_names(self):
        return {"function", "vectorized", "dtype"}

    def _validate_params(self):
        fn = self._params.get("function")
        if fn is not None and not callable(fn):
            raise ValueError("function must be callable")

    def num_dependencies(self):
        return None

    def run_many(self, ids, stream, *dependency_arrays):
        fn = self._params.get("function")
        if fn is None:
            raise ValueError("FormulaGenerator needs 'function'")
        ids = np.asarray(ids, dtype=np.int64)
        columns = [np.asarray(dep) for dep in dependency_arrays]
        if self._params.get("vectorized", False):
            return np.asarray(fn(*columns))
        out = np.empty(ids.size, dtype=self.output_dtype())
        # zip over the arrays keeps the numpy scalar types the legacy
        # indexing loop passed to the callable.
        if columns:
            out[:] = [fn(*args) for args in zip(*columns)]
        else:
            out[:] = [fn() for _ in range(ids.size)]
        return out

    def output_dtype(self):
        tag = self._params.get("dtype")
        if tag is None:
            return np.dtype(object)
        return np.dtype(tag)


class LookupGenerator(PropertyGenerator):
    """Map one dependency through a dict (with optional default)."""

    name = "lookup"
    access = "random"

    def parameter_names(self):
        return {"mapping", "default"}

    def _validate_params(self):
        mapping = self._params.get("mapping")
        if mapping is not None and not isinstance(mapping, dict):
            raise ValueError("mapping must be a dict")

    def num_dependencies(self):
        return 1

    def run_many(self, ids, stream, *dependency_arrays):
        mapping = self._params.get("mapping")
        if mapping is None:
            raise ValueError("LookupGenerator needs 'mapping'")
        if len(dependency_arrays) != 1:
            raise ValueError("LookupGenerator takes exactly one dependency")
        keys = np.asarray(dependency_arrays[0])
        out = np.empty(keys.size, dtype=object)
        fallback = (
            self._params["default"] if "default" in self._params
            else _MISSING
        )
        get = mapping.get
        values = [get(key, fallback) for key in keys.tolist()]
        if fallback is _MISSING:
            for i, value in enumerate(values):
                if value is _MISSING:
                    raise KeyError(
                        f"no mapping for {keys[i]!r} and no default"
                    )
        out[:] = values
        return out
