"""Random-access random number streams.

A :class:`RandomStream` is the concrete realisation of the paper's
``r : (i: Long) -> Long`` function: a deterministic map from an instance
id to a 64-bit random number, independent per stream.  The generation
engine builds one stream per property table so that properties are
mutually independent (Section 4.1 of the paper).

Streams also provide convenience conversions (floats in [0, 1), bounded
integers, permutation sampling) that property and structure generators
need, all vectorised and all derived from the same O(1)-access core.

Two access patterns exist:

* **flat** — one draw per instance id (``uniform(ids)``): one SplitMix
  pass over the id array.
* **ragged** — a *variable* number of draws per instance id
  (``uniform_ragged(ids, lengths)``): instance ``i`` needs
  ``lengths[i]`` draws, e.g. the words of a sentence or the picks of a
  multi-valued property.  The ragged API computes every per-instance
  substream seed and every draw in a single vectorised pass, returning
  a flat array plus segment offsets — bit-identical to building
  ``indexed_substream(i)`` objects one at a time, without the N Python
  objects.
"""

from __future__ import annotations

import numpy as np

from ._ckernel import load_prng_ckernel
from .splitmix import GOLDEN_GAMMA, hash_string, mix64, splitmix64

__all__ = ["RandomStream", "derive_seed"]

_DOUBLE_NORM = 1.0 / (1 << 53)


def derive_seed(root_seed, *names):
    """Derive a child seed from ``root_seed`` and a path of names.

    Successive names are folded in with the stable string hash, so
    ``derive_seed(s, "Person", "country")`` differs from
    ``derive_seed(s, "Person", "name")`` and from
    ``derive_seed(s, "Personcountry")``.
    """
    seed = int(root_seed)
    for name in names:
        seed = hash_string(str(name), seed=seed ^ 0xA5A5A5A5A5A5A5A5)
    return seed & ((1 << 64) - 1)


class RandomStream:
    """A named, seekable stream of pseudo-random numbers.

    Parameters
    ----------
    seed:
        64-bit stream seed.  Streams with different seeds are independent.
    name:
        Optional human-readable label, folded into the seed when given.

    Examples
    --------
    >>> r = RandomStream(42, "Person.country")
    >>> int(r(10)) == int(r(10))        # random access is deterministic
    True
    >>> r.uniform([0, 1, 2]).shape
    (3,)
    """

    __slots__ = ("seed", "name")

    def __init__(self, seed, name=None):
        if name is not None:
            seed = derive_seed(seed, name)
        self.seed = int(seed) & ((1 << 64) - 1)
        self.name = name

    def __repr__(self):
        label = f", name={self.name!r}" if self.name else ""
        return f"RandomStream(seed={self.seed:#x}{label})"

    def __eq__(self, other):
        return isinstance(other, RandomStream) and self.seed == other.seed

    def __hash__(self):
        return hash(("RandomStream", self.seed))

    # -- core contract ----------------------------------------------------

    def __call__(self, index):
        """Return the ``index``-th raw 64-bit number (the paper's ``r(i)``)."""
        return splitmix64(self.seed, index)

    def raw(self, index):
        """Alias of :meth:`__call__` for readability at call sites."""
        return splitmix64(self.seed, index)

    # -- derived draws ----------------------------------------------------

    def uniform(self, index):
        """Uniform float64 in ``[0, 1)`` for each entry of ``index``."""
        bits = splitmix64(self.seed, index)
        return (bits >> np.uint64(11)).astype(np.float64) * _DOUBLE_NORM

    def randint(self, index, low, high):
        """Uniform integer in ``[low, high)`` for each entry of ``index``.

        Uses the multiply-shift bounded-range reduction, which is unbiased
        enough for data generation (bias < 2^-53 via the float path).
        """
        if high <= low:
            raise ValueError(f"empty range [{low}, {high})")
        span = high - low
        u = self.uniform(index)
        return (low + (u * span).astype(np.int64)).astype(np.int64)

    def normal(self, index, mean=0.0, std=1.0):
        """Gaussian draws via the inverse-CDF method (deterministic)."""
        from scipy.special import ndtri

        u = self.uniform(index)
        # Clamp away from {0, 1} so ndtri stays finite.
        u = np.clip(u, 1e-12, 1.0 - 1e-12)
        return mean + std * ndtri(u)

    def substream(self, name):
        """Return an independent stream derived from this one."""
        return RandomStream(derive_seed(self.seed, name))

    def indexed_substream(self, index):
        """Return an independent stream for integer ``index``.

        Used when a single instance needs several draws, e.g. the ``i``-th
        node drawing a variable number of edges: each node gets its own
        substream, keeping the O(1) access property.
        """
        with np.errstate(over="ignore"):
            child = int(
                mix64(np.uint64(self.seed)
                      ^ (np.uint64(index) * GOLDEN_GAMMA))
            )
        return RandomStream(child)

    # -- batched ragged draws ---------------------------------------------

    def indexed_substream_seeds(self, index):
        """Seeds of ``indexed_substream(i)`` for every ``i`` in ``index``.

        One vectorised SplitMix pass replacing N Python stream objects:
        ``indexed_substream_seeds(ids)[j] == indexed_substream(ids[j]).seed``
        bit-for-bit.

        Returns a ``uint64`` array shaped like ``index`` — also for
        zero-length ``index`` (a plain ``[]`` would otherwise pass
        through numpy's float64 default and empty serving pages /
        shards would round-trip with the wrong dtype).

        >>> RandomStream(1).indexed_substream_seeds([]).dtype
        dtype('uint64')
        """
        idx = np.asarray(index)
        if idx.size == 0:
            return np.empty(idx.shape, dtype=np.uint64)
        with np.errstate(over="ignore"):
            return mix64(
                np.uint64(self.seed)
                ^ (idx.astype(np.uint64) * GOLDEN_GAMMA)
            )

    @staticmethod
    def _ragged_offsets(index, lengths):
        index = np.asarray(index, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        if lengths.shape != index.shape:
            raise ValueError("lengths must align with index")
        if lengths.size and lengths.min() < 0:
            raise ValueError("lengths must be nonnegative")
        offsets = np.zeros(index.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        return index, lengths, offsets

    def raw_ragged(self, index, lengths):
        """Raw 64-bit draws, ``lengths[i]`` of them per instance.

        Returns ``(flat, offsets)`` where
        ``flat[offsets[i]:offsets[i + 1]]`` equals
        ``indexed_substream(index[i]).raw(np.arange(lengths[i]))`` —
        the per-instance substream draws, computed as one SplitMix pass
        over the flattened positions.
        """
        index, lengths, offsets = self._ragged_offsets(index, lengths)
        seeds = self.indexed_substream_seeds(index)
        total = int(offsets[-1])
        position = np.arange(total, dtype=np.uint64)
        # Position within each segment: global position minus the
        # segment start, so draw j of instance i indexes its substream
        # at j exactly as the scalar path does.
        position -= np.repeat(
            offsets[:-1].astype(np.uint64), lengths
        )
        with np.errstate(over="ignore"):
            state = (
                np.repeat(seeds, lengths)
                + (position + np.uint64(1)) * GOLDEN_GAMMA
            )
        return mix64(state), offsets

    def uniform_ragged(self, index, lengths):
        """Uniform float64 in ``[0, 1)``, ``lengths[i]`` per instance.

        The ragged counterpart of :meth:`uniform`; see
        :meth:`raw_ragged` for the layout contract.

        >>> r = RandomStream(9, "ragged")
        >>> flat, offsets = r.uniform_ragged([4, 7], [2, 3])
        >>> per_instance = r.indexed_substream(7).uniform(
        ...     np.arange(3, dtype=np.int64))
        >>> bool((flat[offsets[1]:offsets[2]] == per_instance).all())
        True
        """
        bits, offsets = self.raw_ragged(index, lengths)
        flat = (bits >> np.uint64(11)).astype(np.float64)
        flat *= _DOUBLE_NORM
        return flat, offsets

    def permutation(self, n):
        """Deterministic permutation of ``range(n)`` (Fisher-Yates).

        The one inherently sequential stream operation (swap ``pos``
        reads what swap ``pos + 1`` wrote), and it is on every run's
        path: the stub shuffles of ``lfr`` / ``configuration`` /
        ``bipartite_configuration``, ``one_to_one``, the matching maps
        and the match arrival orders all call it.  The loop runs
        compiled when a C compiler is available
        (:mod:`repro.prng._ckernel`); the Python loop below is the
        fallback and the oracle the kernel is tested against.
        """
        kernel = load_prng_ckernel()
        if kernel is not None:
            return kernel.permutation(self.seed, n)
        perm = np.arange(n, dtype=np.int64)
        # Vectorised draw of all swap targets first, then apply.
        idx = np.arange(n - 1, 0, -1, dtype=np.int64)
        u = self.uniform(idx)
        targets = (u * (idx + 1)).astype(np.int64)
        for pos, tgt in zip(idx, targets):
            perm[pos], perm[tgt] = perm[tgt], perm[pos]
        return perm

    def choice(self, index, weights):
        """Categorical draw by inverse-transform over ``weights``.

        Parameters
        ----------
        index:
            Instance ids (scalar or array).
        weights:
            1-D nonnegative weights; normalised internally.

        Returns
        -------
        int64 array of category indices.
        """
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a non-empty 1-D array")
        if (w < 0).any():
            raise ValueError("weights must be nonnegative")
        total = w.sum()
        if total <= 0:
            raise ValueError("weights must sum to a positive value")
        cdf = np.cumsum(w) / total
        u = self.uniform(index)
        return np.searchsorted(cdf, u, side="right").astype(np.int64)
