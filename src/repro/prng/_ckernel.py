"""Optional compiled Fisher-Yates under :meth:`RandomStream.permutation`.

Every other stream operation is one vectorised SplitMix pass; the
permutation is the one loop whose step ``pos`` reads what step
``pos + 1`` wrote, so in Python it costs one interpreter iteration per
element.  When a system C compiler is present the loop is compiled
once (via :mod:`repro.core.ccompile` — the zero-install contract of
the other embedded kernels: lazy, silent fallback, ``REPRO_NO_CKERNEL``
honoured) and called through ``ctypes``, which releases the GIL.

:data:`PRNG_SOURCE` is the C twin of this package — ``mix64``,
``uniform_at``, ``derive_seed``, ``shuffle`` / ``permutation`` — as
``static`` functions, so :mod:`repro.structure._ckernel` includes the
same text instead of transliterating it a second time.

Bit-exactness: ``(mix64(state) >> 11) * 2**-53`` and the product with
``pos + 1`` are single IEEE-754 double operations in both languages
(no sum, so nothing for a compiler to contract), and ``derive_seed``
is integer-only.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["PRNG_SOURCE", "load_prng_ckernel"]

PRNG_SOURCE = r"""
#include <stdint.h>

static inline uint64_t mix64(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/* RandomStream(seed).uniform(index). */
static inline double uniform_at(uint64_t seed, uint64_t index)
{
    uint64_t state = seed + (index + 1ULL) * 0x9E3779B97F4A7C15ULL;
    return (double)(mix64(state) >> 11) * (1.0 / 9007199254740992.0);
}

/* derive_seed(seed, f"{prefix}{index}"): FNV-1a over the name's
   bytes from the salted seed, then mix64. */
static uint64_t derive_seed(uint64_t seed, const char *prefix,
                            uint64_t index)
{
    uint64_t h = 0xCBF29CE484222325ULL ^ seed ^ 0xA5A5A5A5A5A5A5A5ULL;
    char digits[20];
    int len = 0;
    for (; *prefix; ++prefix)
        h = (h ^ (uint8_t)*prefix) * 0x100000001B3ULL;
    do {
        digits[len++] = (char)('0' + index % 10);
        index /= 10;
    } while (index);
    while (len)
        h = (h ^ (uint8_t)digits[--len]) * 0x100000001B3ULL;
    return mix64(h);
}

/* The swaps of RandomStream(seed).permutation(n) applied to a[0..n):
   a becomes a[perm], without the index array. */
static void shuffle(uint64_t seed, int64_t n, int64_t *a)
{
    for (int64_t pos = n - 1; pos > 0; --pos) {
        int64_t tgt = (int64_t)(
            uniform_at(seed, (uint64_t)pos) * (double)(pos + 1));
        int64_t held = a[pos];
        a[pos] = a[tgt];
        a[tgt] = held;
    }
}

static void permutation(uint64_t seed, int64_t n, int64_t *out)
{
    for (int64_t i = 0; i < n; ++i) out[i] = i;
    shuffle(seed, n, out);
}
"""

_SOURCE = PRNG_SOURCE + r"""
void stream_permutation(uint64_t seed, int64_t n, int64_t *out)
{
    permutation(seed, n, out);
}
"""

class _PrngCKernel:
    """The compiled permutation, its output allocated here."""

    def __init__(self, lib):
        self._lib = lib

    def permutation(self, seed, n):
        out = np.empty(max(int(n), 0), dtype=np.int64)
        self._lib.stream_permutation(seed, out.size, out)
        return out


@functools.cache
def _loader():
    # core/__init__ imports this package, so the compile seam is
    # resolved at first use, not at import.
    from ..core.ccompile import load_once

    return load_once(_SOURCE, "prngkernel", _PrngCKernel)


def load_prng_ckernel():
    """The compiled permutation, or ``None`` when unavailable or
    ``REPRO_NO_CKERNEL`` is set (read per call, like every loader)."""
    return _loader()()
