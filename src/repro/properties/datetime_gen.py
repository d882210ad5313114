"""Date / timestamp property generators, including correlated ones.

The running example requires "knows creationDate is greater than the
creationDate of two connected Persons" — a *binary logical relation
between numerical values* (Section 2).  :class:`AfterDependencyGenerator`
implements exactly that: its output is guaranteed to exceed the maximum
of its dependency values.

Timestamps are plain int64 epoch seconds; formatting to ISO strings is
an I/O concern (:mod:`repro.io`).
"""

from __future__ import annotations

import numpy as np

from .base import PropertyGenerator

__all__ = ["DateRangeGenerator", "AfterDependencyGenerator"]

_SECONDS_PER_DAY = 86_400


class DateRangeGenerator(PropertyGenerator):
    """Uniform timestamps within ``[start, end)`` (epoch seconds).

    Parameters (via ``initialize``)
    -------------------------------
    start, end:
        epoch-second bounds.
    granularity:
        "second" (default) or "day" — day granularity rounds down to
        midnight, the common shape of creationDate-style properties.
    """

    name = "date_range"
    access = "random"

    def parameter_names(self):
        return {"start", "end", "granularity"}

    def _validate_params(self):
        start = self._params.get("start")
        end = self._params.get("end")
        if start is not None and end is not None and end <= start:
            raise ValueError("need start < end")
        gran = self._params.get("granularity", "second")
        if gran not in ("second", "day"):
            raise ValueError("granularity must be 'second' or 'day'")

    def run_many(self, ids, stream, *dependency_arrays):
        start = self._params.get("start")
        end = self._params.get("end")
        if start is None or end is None:
            raise ValueError("DateRangeGenerator needs 'start' and 'end'")
        ids = np.asarray(ids, dtype=np.int64)
        values = stream.randint(ids, int(start), int(end))
        if self._params.get("granularity", "second") == "day":
            np.floor_divide(values, _SECONDS_PER_DAY, out=values)
            np.multiply(values, _SECONDS_PER_DAY, out=values)
        return values

    def output_dtype(self):
        return np.dtype(np.int64)


class AfterDependencyGenerator(PropertyGenerator):
    """Timestamps strictly greater than all dependency timestamps.

    ``value = max(deps) + offset`` where ``offset`` is drawn uniformly
    from ``[min_gap, max_gap)``.  With the dependencies being the two
    endpoint creation dates of a ``knows`` edge, this realises the
    running example's constraint exactly (and *strictly*: ``min_gap``
    defaults to 1 second).
    """

    name = "after_dependency"
    access = "random"

    def parameter_names(self):
        return {"min_gap", "max_gap"}

    def _validate_params(self):
        min_gap = self._params.get("min_gap", 1)
        max_gap = self._params.get("max_gap", 365 * _SECONDS_PER_DAY)
        if min_gap < 0:
            raise ValueError("min_gap must be nonnegative")
        if max_gap <= min_gap:
            raise ValueError("need min_gap < max_gap")

    def num_dependencies(self):
        return None  # one or more timestamp dependencies

    def run_many(self, ids, stream, *dependency_arrays):
        if not dependency_arrays:
            raise ValueError(
                "AfterDependencyGenerator needs at least one dependency"
            )
        ids = np.asarray(ids, dtype=np.int64)
        # One reduction buffer (doubling as the output) instead of a
        # fresh maximum per dependency.
        acc = np.empty(ids.size, dtype=self.output_dtype())
        acc[:] = np.asarray(dependency_arrays[0], dtype=np.int64)
        for dep in dependency_arrays[1:]:
            np.maximum(acc, np.asarray(dep, dtype=np.int64), out=acc)
        min_gap = int(self._params.get("min_gap", 1))
        max_gap = int(self._params.get("max_gap", 365 * _SECONDS_PER_DAY))
        np.add(acc, stream.randint(ids, min_gap, max_gap), out=acc)
        return acc

    def output_dtype(self):
        return np.dtype(np.int64)
