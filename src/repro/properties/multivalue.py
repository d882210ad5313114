"""Multi-valued properties (paper §5: "performing experiments for
multi-valued properties would also be interesting").

A multi-valued property holds a *set* of values per instance — e.g. a
Person's interests.  :class:`MultiValueGenerator` draws a per-instance
set size from a distribution and fills the set with weighted draws
without replacement, all under the in-place contract (the whole set is
a pure function of the instance id).

Weighted sampling *without replacement* is the hard case for
batching: every pick zeroes a weight that the next pick's cdf reads,
so draws chain within an instance.  The generator replays the legacy
sequential inverse-transform draws — pick ``d`` of instance ``i``
consumes ``uniform(seed_i, d)`` against
``cumsum(remaining)/sum(remaining)`` — but processes *all instances per
round* instead of all rounds per instance: round ``d`` is one
``(rows, k)`` cumsum/compare pass over a chunked scratch matrix (or one
compiled C loop via :mod:`repro.properties._ckernel`).  Values are
bit-identical to the frozen legacy generator;
``tests/golden/properties/`` pins this.

The companion analysis function
:func:`repro.stats.multivalue.empirical_multivalue_joint` measures the
value-pair joint over edges for multi-valued labels, extending the
Figure-3 protocol's measurement step to sets.
"""

from __future__ import annotations

import numpy as np

from ..prng.splitmix import GOLDEN_GAMMA, mix64
from .base import PropertyGenerator

__all__ = ["MultiValueGenerator"]

_DOUBLE_NORM = 1.0 / (1 << 53)

#: Scratch budget for the exact numpy path: rows are chunked so the
#: per-round (rows, k) float64 matrices stay ~8 MB each.
_SCRATCH_FLOATS = 1 << 20


def _exact_picks_numpy(seeds, sizes, weights):
    """Replay the legacy sequential weighted picks, batched by round.

    Returns ``(codes, offsets)``: instance ``i``'s picks (in draw
    order) at ``codes[offsets[i]:offsets[i + 1]]``.  Round ``d``
    computes, for every instance still drawing, the exact float64
    sequence of the legacy ``RandomStream.choice`` call — pairwise
    ``sum`` for the total, sequential ``cumsum``, elementwise divide,
    ``searchsorted(side="right")`` — as matrix rows.
    """
    n = seeds.size
    k = weights.size
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    codes = np.empty(int(offsets[-1]), dtype=np.int64)
    if n == 0 or codes.size == 0:
        return codes, offsets
    chunk = max(1, _SCRATCH_FLOATS // max(k, 1))
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        seeds_l = seeds[lo:hi]
        sizes_l = sizes[lo:hi]
        starts_l = offsets[lo:hi]
        remaining = np.broadcast_to(
            weights, (hi - lo, k)
        ).copy()
        scratch = np.empty((hi - lo, k), dtype=np.float64)
        for d in range(int(sizes_l.max())):
            # Compact to the rows still drawing, so finished rows do
            # not keep paying the per-round matrix work (their picks
            # are already written; dropping them cannot change any
            # remaining row's draws).
            keep = sizes_l > d
            if not keep.all():
                seeds_l = seeds_l[keep]
                sizes_l = sizes_l[keep]
                starts_l = starts_l[keep]
                remaining = remaining[keep]
            rows = seeds_l.size
            if rows == 0:
                break
            cdf = scratch[:rows]
            with np.errstate(over="ignore"):
                bits = mix64(
                    seeds_l + np.uint64(d + 1) * GOLDEN_GAMMA
                )
            u = (bits >> np.uint64(11)).astype(np.float64)
            u *= _DOUBLE_NORM
            # total via sum(), not cumsum[-1]: numpy's pairwise sum is
            # what the legacy choice() normalised by, and the two can
            # differ in the last ulp.
            totals = remaining.sum(axis=1)
            np.cumsum(remaining, axis=1, out=cdf)
            cdf /= totals[:, None]
            picked = (cdf <= u[:, None]).sum(axis=1)
            np.minimum(picked, k - 1, out=picked)
            codes[starts_l + d] = picked
            remaining[np.arange(rows), picked] = 0.0
    return codes, offsets


class MultiValueGenerator(PropertyGenerator):
    """Generate a tuple of distinct values per instance.

    Parameters (via ``initialize``)
    -------------------------------
    values:
        the value universe, ordered by decreasing popularity.
    min_size, max_size:
        set size bounds (uniform between them; default 1..3).
    exponent:
        Zipf popularity exponent over ``values`` (default 1.0).

    Values within one instance are distinct; the output dtype is
    object (each cell a tuple, sorted by universe rank for
    determinism-friendly comparison).
    """

    name = "multi_value"
    access = "random"

    def parameter_names(self):
        return {"values", "min_size", "max_size", "exponent"}

    def _validate_params(self):
        values = self._params.get("values")
        if values is not None and len(values) == 0:
            raise ValueError("values must be non-empty")
        lo = self._params.get("min_size", 1)
        hi = self._params.get("max_size", 3)
        if lo < 1 or hi < lo:
            raise ValueError("need 1 <= min_size <= max_size")
        if values is not None and hi > len(values):
            raise ValueError("max_size exceeds the value universe")
        exponent = self._params.get("exponent", 1.0)
        if exponent < 0:
            raise ValueError("exponent must be nonnegative")

    def _weights(self):
        values = self._params["values"]
        exponent = float(self._params.get("exponent", 1.0))
        universe = len(values)
        ranks = np.arange(1, universe + 1, dtype=np.float64)
        return ranks ** (-exponent) if exponent > 0 \
            else np.ones(universe)

    def run_many(self, ids, stream, *dependency_arrays):
        values = self._params.get("values")
        if values is None:
            raise ValueError("MultiValueGenerator needs 'values'")
        lo = int(self._params.get("min_size", 1))
        hi = int(self._params.get("max_size", 3))
        weights = self._weights()

        ids = np.asarray(ids, dtype=np.int64)
        sizes = stream.substream("size").randint(ids, lo, hi + 1)
        pick_stream = stream.substream("picks")
        out = np.empty(ids.size, dtype=self.output_dtype())
        if ids.size == 0:
            return out
        seeds = pick_stream.indexed_substream_seeds(ids)
        from ._ckernel import load_property_ckernel

        kernel = load_property_ckernel()
        if kernel is not None:
            codes, offsets = kernel.multivalue_picks(seeds, sizes, weights)
        else:
            codes, offsets = _exact_picks_numpy(seeds, sizes, weights)
        values = list(values)
        flat = codes.tolist()
        bounds = offsets.tolist()
        out[:] = [
            tuple(values[c] for c in sorted(flat[a:b]))
            for a, b in zip(bounds, bounds[1:])
        ]
        return out
