"""Identifier generators: uuids correlated with the id (Section 4.1).

"Passing the id to run allows the generation of user-controlled uuids
that can be correlated with other properties such as the time."

The batched rewrite draws both uuid halves as whole-array SplitMix
passes (the legacy loop re-derived the ``"high"`` substream — a string
hash — once *per row*) and assembles the hex strings with C-level
``map``/``%``-formatting over ``tolist()`` scalars, the string
strategy measured fastest in :mod:`repro.io.chunks`.
"""

from __future__ import annotations

import numpy as np

from .base import PropertyGenerator

__all__ = ["UuidGenerator", "CompositeKeyGenerator"]


class UuidGenerator(PropertyGenerator):
    """Deterministic 128-bit hex identifiers derived from (stream, id).

    The leading 16 hex digits are the mixed id (so ids sort the same as
    uuids when ``time_ordered=True``), the trailing 16 come from the
    stream — a user-controlled uuid in the paper's sense.
    """

    name = "uuid"
    access = "random"

    def parameter_names(self):
        return {"time_ordered"}

    def run_many(self, ids, stream, *dependency_arrays):
        ids = np.asarray(ids, dtype=np.int64)
        random_half = stream.raw(ids)
        if bool(self._params.get("time_ordered", False)):
            high = (ids.astype(np.uint64)
                    & np.uint64(2 ** 64 - 1)).tolist()
        else:
            high = stream.substream("high").raw(ids).tolist()
        out = np.empty(ids.size, dtype=self.output_dtype())
        out[:] = [
            "%016x%016x" % pair
            for pair in zip(high, random_half.tolist())
        ]
        return out


class CompositeKeyGenerator(PropertyGenerator):
    """Keys of the form ``prefix-<id>`` (human-readable surrogate keys)."""

    name = "composite_key"
    access = "random"

    def parameter_names(self):
        return {"prefix"}

    def run_many(self, ids, stream, *dependency_arrays):
        prefix = str(self._params.get("prefix", "id"))
        ids = np.asarray(ids, dtype=np.int64)
        out = np.empty(ids.size, dtype=self.output_dtype())
        stem = prefix + "-"
        out[:] = [stem + s for s in map(str, ids.tolist())]
        return out
