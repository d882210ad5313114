"""Optional compiled inner loops for the attribute kernels.

After the batched rewrite, two property pipelines keep an irreducible
per-draw loop even in numpy: weighted sampling *without replacement*
(every pick renormalises the remaining weights the next pick reads)
and the ragged word draws of :class:`~repro.properties.text.
TextGenerator` (draw + search per word, then one Python ``join`` per
sentence).  When a system C compiler is present this module compiles
both loops into a cached shared object (via :mod:`repro.core.ccompile`
— the same zero-install contract as the matching kernel) and the
generators call them through ``ctypes``; otherwise the pure-numpy
pipelines take over silently.

Bit-exactness contract:

* the SplitMix64 mix, counter advance and ``[0, 1)`` conversion are
  transliterated from :mod:`repro.prng.splitmix` — ``(mix64(state)
  >> 11) * 2**-53`` is exact in both languages, so draws are bitwise
  identical to ``RandomStream.uniform``;
* ``ragged_text`` writes a block's sentences (UTF-8 words, encoded
  with ``surrogatepass``, joined by ``' '``) back to back, with each
  sentence's end offset, in one pass: the blob and offsets of a
  ragged :class:`~repro.tables.StringColumn`.  Each word's search
  bisects only the guide bucket ``guide[b]..guide[b + 1]``, ``b =
  floor(u * G)``, where ``guide = searchsorted(cdf, arange(G + 1) /
  G, side="right")`` and ``G`` is a power of two: ``u`` is a multiple
  of 2**-53, so ``u * G`` and ``b / G`` are exact, ``b / G <= u < (b
  + 1) / G`` brackets the answer, and codes equal
  ``numpy.searchsorted(cdf, u, side="right")``;
* ``multivalue_picks`` replays the legacy sequential inverse-transform
  draws; remaining-weight totals use the same pairwise summation
  numpy's ``w.sum()`` performs (8-way unrolled blocks of 128, halving
  recursion above), so the normalised cdf a draw is compared against
  carries the exact bits of the frozen legacy generator.

Selection: C whenever it loads; ``REPRO_NO_CKERNEL=1``, the switch
every compiled kernel reads on every call, selects the numpy path.
"""

from __future__ import annotations

import ctypes

import numpy as np

from ..core.ccompile import load_once

__all__ = ["load_property_ckernel", "resolve_impl"]

_SOURCE = r"""
#include <stdint.h>
#include <string.h>

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

/* Ragged sentences over one shared cdf: instance i draws lengths[i]
   (>= 1) words from its substream (seeds[i]), word k being bytes
   voff[k]..voff[k + 1] of vocab; sentence i ends at byte ends[i] of
   buf.  Returns how many whole sentences fit in cap bytes of buf, and
   their byte count in *used. */
int64_t ragged_text(
    int64_t n, int64_t v, int64_t g,
    const uint64_t *seeds,
    const int64_t *lengths,
    const double *cdf,
    const int64_t *guide,     /* g + 1 */
    const char *vocab,
    const int64_t *voff,      /* v + 1 */
    char *buf, int64_t cap,
    int64_t *ends,            /* n */
    int64_t *used)
{
    int64_t pos = 0;
    for (int64_t i = 0; i < n; ++i) {
        int64_t start = pos;
        for (int64_t j = 0; j < lengths[i]; ++j) {
            double u = u01(seeds[i], (uint64_t)j);
            int64_t b = (int64_t)(u * (double)g);
            int64_t lo = guide[b], hi = guide[b + 1];
            while (lo < hi) {
                int64_t mid = (lo + hi) >> 1;
                if (cdf[mid] <= u) lo = mid + 1;
                else hi = mid;
            }
            if (lo >= v) lo = v - 1;
            int64_t size = voff[lo + 1] - voff[lo];
            if (pos + size + 1 > cap) { *used = start; return i; }
            memcpy(buf + pos, vocab + voff[lo], (size_t)size);
            pos += size;
            buf[pos++] = ' ';
        }
        ends[i] = --pos;  /* without the last ' ' */
    }
    *used = pos;
    return n;
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
_U8P = np.ctypeslib.ndpointer(dtype=np.uint8, flags="C_CONTIGUOUS")


class _PropertyCKernel:
    """ctypes facade over the compiled attribute loops."""

    def __init__(self, lib):
        self._lib = lib
        lib.ragged_text.restype = ctypes.c_int64
        lib.ragged_text.argtypes = [
            ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
            _U64P, _I64P, _F64P, _I64P, ctypes.c_char_p, _I64P,
            _U8P, ctypes.c_int64, _I64P, ctypes.POINTER(ctypes.c_int64),
        ]
        lib.multivalue_picks.restype = None
        lib.multivalue_picks.argtypes = [
            ctypes.c_int64, ctypes.c_int64,
            _U64P, _I64P, _F64P, _F64P, _I64P,
        ]

    def ragged_text(self, seeds, lengths, cdf, guide, blob, offsets, buf):
        """``(ends, text)`` for per-instance cdf word draws: sentence
        ``i`` is bytes ``ends[i - 1]..ends[i]`` (from 0) of the uint8
        ``text``; ``buf`` must hold the longest possible sentence."""
        seeds = np.ascontiguousarray(seeds, dtype=np.uint64)
        lengths = np.ascontiguousarray(lengths, dtype=np.int64)
        ends = np.empty(seeds.size, dtype=np.int64)
        parts, done, used = [], 0, ctypes.c_int64()
        while done < seeds.size:
            count = self._lib.ragged_text(
                seeds.size - done, cdf.size, guide.size - 1,
                seeds[done:], lengths[done:], cdf, guide, blob, offsets,
                buf, buf.size, ends[done:], ctypes.byref(used),
            )
            ends[done:done + count] += sum(map(len, parts))
            parts.append(buf[:used.value].copy())
            done += count
        return ends, np.concatenate(parts or [buf[:0]])

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


#: ``load_property_ckernel()``: the compiled attribute kernel, or
#: ``None`` when unavailable or ``REPRO_NO_CKERNEL`` is set.
load_property_ckernel = load_once(_SOURCE, "propkernel", _PropertyCKernel)


def resolve_impl():
    """The path the attribute kernels take right now: ``"c"`` or
    ``"numpy"``."""
    return "numpy" if load_property_ckernel() is None else "c"
