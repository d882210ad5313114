"""Text synthesis generators (message bodies, labels).

:class:`TextGenerator` is the heaviest builtin PG — a sentence per
instance means a *ragged* number of draws per id.  The legacy
implementation (frozen in :mod:`repro.properties.legacy`) built one
``indexed_substream`` object and ran one ``searchsorted`` per
instance; the batched pipeline here computes the substream seeds, word
draws and vocabulary codes of a block of ids in a handful of vectorised
passes (:meth:`~repro.prng.RandomStream.uniform_ragged`), then
assembles sentences with one flat codes→words fancy-index and C-level
``join`` over list slices.  With a system C compiler one compiled pass
(:mod:`repro.properties._ckernel`) draws, finds and writes a block's
sentences as UTF-8 bytes, which one ``decode`` + ``split`` turns into
strings; numpy remains the fallback.  Blocks keep the transients,
several times the sentences they build, from stacking shard-sized
across pool threads.
"""

from __future__ import annotations

import numpy as np

from .base import PropertyGenerator

__all__ = ["TextGenerator", "TemplateGenerator"]

#: Ids per block of :meth:`TextGenerator.run_many` (never changes a byte).
_BLOCK_ROWS = 8192

#: Compiled path's sentence-buffer bytes (or one longest sentence).
_TEXT_BYTES = 1 << 20


class TextGenerator(PropertyGenerator):
    """Random word sequences from a vocabulary.

    Parameters (via ``initialize``)
    -------------------------------
    vocabulary:
        list of words.
    min_words, max_words:
        sentence length bounds (defaults 3 and 12).
    zipf_exponent:
        word popularity skew (default 1.0; 0 disables skew).
    """

    name = "text"
    access = "random"

    def parameter_names(self):
        return {"vocabulary", "min_words", "max_words", "zipf_exponent"}

    def _validate_params(self):
        vocab = self._params.get("vocabulary")
        if vocab is not None and len(vocab) == 0:
            raise ValueError("vocabulary must be non-empty")
        lo = self._params.get("min_words", 3)
        hi = self._params.get("max_words", 12)
        if lo < 1 or hi < lo:
            raise ValueError("need 1 <= min_words <= max_words")
        self._cache = None

    def _tables(self):
        """Cached ``(cdf, word_array, packed)`` for the current parameters;
        ``packed`` is the compiled path's ``(guide, blob, offsets)``, or
        ``None`` when a word contains the sentence-ending ``'\\n'``."""
        vocab = self._params["vocabulary"]
        exponent = float(self._params.get("zipf_exponent", 1.0))
        key = (id(vocab), len(vocab), exponent)
        cache = getattr(self, "_cache", None)
        if cache is not None and cache[0] == key:
            return cache[1:]
        if exponent > 0:
            ranks = np.arange(1, len(vocab) + 1, dtype=np.float64)
            weights = ranks ** (-exponent)
            cdf = np.cumsum(weights / weights.sum())
        else:
            cdf = np.linspace(1.0 / len(vocab), 1.0, len(vocab))
        # The cumulative sum can land one ulp *below* 1.0, in which
        # case a uniform drawn in that final gap makes searchsorted
        # return len(vocab).  The legacy loop papered over it with a
        # min(code, len - 1) clamp, which silently biases the gap mass
        # onto the last (rarest) word; pinning the final step to 1.0
        # removes the gap itself, so every u in [0, 1) maps in range
        # and no clamp is needed.
        cdf[-1] = 1.0
        words = np.empty(len(vocab), dtype=object)
        words[:] = list(vocab)
        packed = None
        if not any("\n" in word for word in vocab):
            buckets = min(1 << 16, 1 << (4 * len(vocab) - 1).bit_length())
            guide = np.searchsorted(
                cdf, np.arange(buckets + 1) / buckets, side="right"
            )
            encoded = [w.encode("utf-8", "surrogatepass") for w in vocab]
            offsets = np.cumsum([0, *map(len, encoded)], dtype=np.int64)
            packed = (guide, b"".join(encoded), offsets)
        self._cache = (key, cdf, words, packed)
        return cdf, words, packed

    def _word_codes(self, flat_u, cdf):
        """Vocabulary codes for flat uniform draws (regression surface).

        With ``cdf[-1]`` pinned to 1.0 exactly, every ``u < 1.0`` —
        including the largest representable uniform output,
        ``(2**53 - 1) / 2**53`` — satisfies ``u < cdf[-1]``, so
        ``searchsorted(..., side="right")`` is always ``< len(vocab)``
        and the result needs no clamping.
        """
        return np.searchsorted(cdf, flat_u, side="right")

    def run_many(self, ids, stream, *dependency_arrays):
        vocab = self._params.get("vocabulary")
        if vocab is None:
            raise ValueError("TextGenerator needs 'vocabulary'")
        lo = int(self._params.get("min_words", 3))
        hi = int(self._params.get("max_words", 12))
        cdf, words, packed = self._tables()
        ids = np.asarray(ids, dtype=np.int64)
        out = np.empty(ids.size, dtype=self.output_dtype())
        len_stream = stream.substream("len")
        word_stream = stream.substream("words")
        from ._ckernel import load_property_ckernel

        kernel = load_property_ckernel() if packed is not None else None
        if kernel is not None:
            longest = hi * (int(np.diff(packed[2]).max()) + 1)
            buf = np.empty(max(_TEXT_BYTES, longest), dtype=np.uint8)
        join = " ".join
        for start in range(0, ids.size, _BLOCK_ROWS):
            block = ids[start:start + _BLOCK_ROWS]
            lengths = len_stream.randint(block, lo, hi + 1)
            if kernel is not None:
                seeds = word_stream.indexed_substream_seeds(block)
                out[start:start + block.size] = kernel.ragged_text(
                    seeds, lengths, cdf, *packed, buf
                )
                continue
            draws, offsets = word_stream.uniform_ragged(block, lengths)
            flat_words = words[self._word_codes(draws, cdf)].tolist()
            bounds = offsets.tolist()
            out[start:start + block.size] = [
                join(flat_words[a:b]) for a, b in zip(bounds, bounds[1:])
            ]
        return out


class TemplateGenerator(PropertyGenerator):
    """Fill a format template with dependency values and the id.

    Parameters (via ``initialize``)
    -------------------------------
    template:
        a ``str.format`` template; ``{id}`` and ``{0}``, ``{1}``, ...
        refer to the instance id and the dependency values.

    Example: ``template="{0} from {1} (member #{id})"`` with
    dependencies ``(name, country)``.
    """

    name = "template"
    access = "random"

    def parameter_names(self):
        return {"template"}

    def _validate_params(self):
        if "template" in self._params and not isinstance(
            self._params["template"], str
        ):
            raise ValueError("template must be a string")

    def num_dependencies(self):
        return None

    def run_many(self, ids, stream, *dependency_arrays):
        template = self._params.get("template")
        if template is None:
            raise ValueError("TemplateGenerator needs 'template'")
        ids = np.asarray(ids, dtype=np.int64)
        columns = [np.asarray(dep) for dep in dependency_arrays]
        out = np.empty(ids.size, dtype=self.output_dtype())
        fmt = template.format
        ids_list = ids.tolist()
        # zip over the arrays (not .tolist()) keeps the numpy scalars
        # the legacy loop formatted, so float/str rendering is
        # unchanged.
        if columns:
            out[:] = [
                fmt(*args, id=i)
                for args, i in zip(zip(*columns), ids_list)
            ]
        else:
            out[:] = [fmt(id=i) for i in ids_list]
        return out
