"""Optional compiled inner loops for the attribute kernels.

After the batched rewrite, two property pipelines keep an irreducible
per-draw loop even in numpy: weighted sampling *without replacement*
(every pick renormalises the remaining weights the next pick reads)
and the ragged word draws of :class:`~repro.properties.text.
TextGenerator` (draw + binary search per word, where numpy pays one
pass per round instead of one pass total).  When a system C compiler
is present this module compiles both loops into a cached shared object
(via :mod:`repro.core.ccompile` — the same zero-install contract as
the matching kernel) and the generators call them through ``ctypes``;
otherwise the pure-numpy pipelines take over silently.

Bit-exactness contract:

* the SplitMix64 mix, counter advance and ``[0, 1)`` conversion are
  transliterated from :mod:`repro.prng.splitmix` — ``(mix64(state)
  >> 11) * 2**-53`` is exact in both languages, so draws are bitwise
  identical to ``RandomStream.uniform``;
* ``ragged_cdf_codes`` binary-searches the caller's cdf with
  ``numpy.searchsorted(side="right")`` semantics, so codes equal the
  numpy path's for the same cdf;
* ``multivalue_picks`` replays the legacy sequential inverse-transform
  draws; remaining-weight totals use the same pairwise summation
  numpy's ``w.sum()`` performs (8-way unrolled blocks of 128, halving
  recursion above), so the normalised cdf a draw is compared against
  carries the exact bits of the frozen legacy generator.

Selection: ``REPRO_PROP_IMPL=auto|numpy|c`` (default ``auto`` — C when
available); ``REPRO_NO_CKERNEL=1`` disables compilation globally.
"""

from __future__ import annotations

import ctypes
import os

import numpy as np

from ..core.ccompile import load_once

__all__ = ["load_property_ckernel", "resolve_impl"]

_SOURCE = r"""
#include <stdint.h>

static inline uint64_t mix64(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/* The index-th output of the SplitMix64 stream `seed`, mapped to
   [0, 1) exactly as RandomStream.uniform does. */
static inline double u01(uint64_t seed, uint64_t index)
{
    uint64_t state = seed + (index + 1ULL) * 0x9E3779B97F4A7C15ULL;
    return (double)(mix64(state) >> 11) * (1.0 / 9007199254740992.0);
}

/* numpy's pairwise summation (8-way unrolled blocks of <= 128,
   halving recursion above), so totals match w.sum() bit-for-bit. */
static double pairwise_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (int64_t i = 0; i < n; ++i) res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        for (int64_t j = 0; j < 8; ++j) r[j] = a[j];
        int64_t i = 8;
        for (; i < n - (n % 8); i += 8)
            for (int64_t j = 0; j < 8; ++j) r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3]))
                   + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; ++i) res += a[i];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

/* searchsorted(cdf, u, side="right"): first index with cdf[i] > u. */
static inline int64_t bisect_right(const double *cdf, int64_t v, double u)
{
    int64_t lo = 0, hi = v;
    while (lo < hi) {
        int64_t mid = (lo + hi) >> 1;
        if (cdf[mid] <= u) lo = mid + 1;
        else hi = mid;
    }
    return lo;
}

/* Ragged categorical draws over one shared cdf: instance i consumes
   lengths[i] uniforms from its substream (seeds[i]) and each is
   inverse-transformed through cdf[0..v).  Codes land flat, segment i
   at sum(lengths[:i]). */
void ragged_cdf_codes(
    int64_t n, int64_t v,
    const uint64_t *seeds,
    const int64_t *lengths,
    const double *cdf,
    int64_t *codes)
{
    int64_t cursor = 0;
    for (int64_t i = 0; i < n; ++i) {
        uint64_t seed = seeds[i];
        int64_t len = lengths[i];
        for (int64_t j = 0; j < len; ++j) {
            int64_t code = bisect_right(cdf, v, u01(seed, (uint64_t)j));
            if (code >= v) code = v - 1;
            codes[cursor++] = code;
        }
    }
}

/* Weighted sampling without replacement, replaying the legacy
   sequential draws: pick d of instance i uses uniform(seed_i, d) and
   the cdf cumsum(remaining)/sum(remaining) with numpy's exact
   float64 operation order (sequential cumsum, pairwise sum). */
void multivalue_picks(
    int64_t n, int64_t k,
    const uint64_t *seeds,
    const int64_t *sizes,
    const double *weights,
    double *scratch,      /* k doubles */
    int64_t *codes)       /* sum(sizes) */
{
    int64_t cursor = 0;
    for (int64_t i = 0; i < n; ++i) {
        uint64_t seed = seeds[i];
        int64_t size = sizes[i];
        for (int64_t j = 0; j < k; ++j) scratch[j] = weights[j];
        for (int64_t d = 0; d < size; ++d) {
            double total = pairwise_sum(scratch, k);
            double u = u01(seed, (uint64_t)d);
            double acc = 0.0;
            int64_t code = k - 1;
            for (int64_t j = 0; j < k; ++j) {
                acc += scratch[j];
                if (acc / total > u) { code = j; break; }
            }
            codes[cursor++] = code;
            scratch[code] = 0.0;
        }
    }
}
"""

_U64P = np.ctypeslib.ndpointer(dtype=np.uint64, flags="C_CONTIGUOUS")
_I64P = np.ctypeslib.ndpointer(dtype=np.int64, flags="C_CONTIGUOUS")
_F64P = np.ctypeslib.ndpointer(dtype=np.float64, flags="C_CONTIGUOUS")


class _PropertyCKernel:
    """ctypes facade over the compiled attribute loops."""

    def __init__(self, lib):
        self._lib = lib
        lib.ragged_cdf_codes.restype = None
        lib.ragged_cdf_codes.argtypes = [
            ctypes.c_int64, ctypes.c_int64,
            _U64P, _I64P, _F64P, _I64P,
        ]
        lib.multivalue_picks.restype = None
        lib.multivalue_picks.argtypes = [
            ctypes.c_int64, ctypes.c_int64,
            _U64P, _I64P, _F64P, _F64P, _I64P,
        ]

    def ragged_cdf_codes(self, seeds, lengths, cdf):
        """Flat codes + offsets for per-instance cdf draws."""
        seeds = np.ascontiguousarray(seeds, dtype=np.uint64)
        lengths = np.ascontiguousarray(lengths, dtype=np.int64)
        cdf = np.ascontiguousarray(cdf, dtype=np.float64)
        offsets = np.zeros(seeds.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        codes = np.empty(int(offsets[-1]), dtype=np.int64)
        self._lib.ragged_cdf_codes(
            seeds.size, cdf.size, seeds, lengths, cdf, codes
        )
        return codes, offsets

    def multivalue_picks(self, seeds, sizes, weights):
        """Flat pick codes + offsets for weighted no-replacement sets."""
        seeds = np.ascontiguousarray(seeds, dtype=np.uint64)
        sizes = np.ascontiguousarray(sizes, dtype=np.int64)
        weights = np.ascontiguousarray(weights, dtype=np.float64)
        offsets = np.zeros(seeds.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        codes = np.empty(int(offsets[-1]), dtype=np.int64)
        scratch = np.empty(weights.size, dtype=np.float64)
        self._lib.multivalue_picks(
            seeds.size, weights.size, seeds, sizes, weights,
            scratch, codes,
        )
        return codes, offsets


#: One compile attempt per process; ``None`` on any failure.
_load = load_once(_SOURCE, "propkernel", _PropertyCKernel)


def load_property_ckernel():
    """The compiled attribute kernel, or ``None`` when unavailable.

    Mirrors the matching kernel's loader: one compile attempt per
    process, silent numpy fallback on any failure, ``None`` when
    ``REPRO_NO_CKERNEL`` is set or ``REPRO_PROP_IMPL=numpy`` forces
    the pure path — and a hard error when ``REPRO_PROP_IMPL=c``
    demands a kernel that cannot load (via :func:`resolve_impl`).
    """
    return _load() if resolve_impl() == "c" else None


def resolve_impl(requested=None):
    """Resolve ``auto``/env selection to ``"numpy"`` or ``"c"``.

    ``requested`` overrides ``REPRO_PROP_IMPL``; ``auto`` (default)
    answers ``"c"`` only when a kernel actually loads.  Forcing
    ``"c"`` when no kernel can load raises, exactly like the matching
    kernel's ``impl="c"``.
    """
    choice = requested or os.environ.get("REPRO_PROP_IMPL", "auto")
    if choice not in ("auto", "numpy", "c"):
        raise ValueError(
            f"unknown property impl {choice!r}; "
            "expected auto, numpy or c"
        )
    if choice == "numpy":
        return "numpy"
    if choice == "c":
        if _load() is None:
            raise RuntimeError(
                "REPRO_PROP_IMPL=c requested but no C kernel is "
                "available (no compiler, or REPRO_NO_CKERNEL=1)"
            )
        return "c"
    return "c" if _load() is not None else "numpy"
