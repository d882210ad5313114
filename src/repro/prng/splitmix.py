"""Counter-based pseudo-random number generation with O(1) random access.

The paper borrows Myriad's *skip-seed* PRNG idea: a generator that can
produce the ``i``-th number of a stream directly, without generating the
``i - 1`` numbers before it.  This is the mechanism that makes *in-place*
property generation possible — any worker, on any machine, can regenerate
the property value of instance ``i`` from ``i`` alone.

We implement the skip-seed contract with a counter-based construction in
the spirit of SplitMix64 / Philox: the ``i``-th output is a strong 64-bit
mix of ``seed + i * GOLDEN_GAMMA``.  SplitMix64 passes BigCrush and its
outputs for distinct counters are statistically independent, which is all
the generation pipeline requires.

All functions are vectorised: they accept either Python ints or numpy
``uint64`` arrays and return the same shape.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "GOLDEN_GAMMA",
    "splitmix64",
    "mix64",
    "hash_string",
]

#: Weyl-sequence increment used by SplitMix64 (2^64 / phi, odd).
GOLDEN_GAMMA = np.uint64(0x9E3779B97F4A7C15)

_MIX_MUL_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_MUL_2 = np.uint64(0x94D049BB133111EB)
_SHIFT_30 = np.uint64(30)
_SHIFT_27 = np.uint64(27)
_SHIFT_31 = np.uint64(31)

_U64_MASK = (1 << 64) - 1


def mix64(z):
    """Apply the SplitMix64 finaliser to ``z``.

    This is a bijective avalanche mix on 64 bits: every input bit affects
    every output bit with probability ~1/2.  ``z`` may be a Python int or
    a numpy array of ``uint64``.
    """
    return _mixed(np.array(z, dtype=np.uint64))


def _mixed(z):
    """:func:`mix64` of a uint64 array the caller owns, in place (array
    arithmetic wraps modulo 2**64 unchecked); a 0-d one as a scalar."""
    z ^= z >> _SHIFT_30
    z *= _MIX_MUL_1
    z ^= z >> _SHIFT_27
    z *= _MIX_MUL_2
    z ^= z >> _SHIFT_31
    return z if z.ndim else z[()]


def splitmix64(seed, index):
    """Return the ``index``-th output of the SplitMix64 stream ``seed``.

    Equivalent to seeding SplitMix64 with ``seed`` and drawing
    ``index + 1`` numbers, but in O(1): the state after ``index`` steps is
    ``seed + (index + 1) * GOLDEN_GAMMA`` by construction.

    Parameters
    ----------
    seed:
        Stream identifier (any 64-bit integer).
    index:
        Position in the stream; scalar or numpy integer array.

    Returns
    -------
    numpy.uint64 scalar or array of the same shape as ``index``.
    """
    state = np.array(index, dtype=np.uint64)
    state += np.uint64(1)
    state *= GOLDEN_GAMMA
    state += np.uint64(int(seed) & _U64_MASK)
    return _mixed(state)


def hash_string(text, seed=0):
    """Hash ``text`` to a stable 64-bit integer (FNV-1a, then mixed).

    Used to derive independent sub-stream seeds from human-readable task
    names, e.g. ``hash_string("Person.country")``.  Stability across runs
    and Python processes is required (so the built-in ``hash`` is not
    usable — it is salted per process).
    """
    h = 0xCBF29CE484222325 ^ (int(seed) & _U64_MASK)
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * 0x100000001B3) & _U64_MASK
    return int(mix64(np.uint64(h)))
