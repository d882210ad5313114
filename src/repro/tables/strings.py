"""String columns: UTF-8 entries as int64 offsets into one uint8 blob.

A :class:`StringColumn` is the value column of every all-``str``
property table.  Entry ``k`` is the bytes ``blob[offsets[k]:offsets[k
+ 1]]``; a column *with* int32 ``codes`` is a dictionary column (row
``i`` holds entry ``codes[i]`` of the vocabulary) and one without is
ragged (row ``i`` holds entry ``i``).  Three consumers read the
arrays themselves: the CSV row kernel formats the bytes, the
dictionary answers category codes without sorting the rows, and the
spool stores their raw bytes.  ``np.asarray(column)`` is the
object array of ``str`` every other consumer reads.

>>> names = StringColumn.from_strings(["naïve", "", "b,c"])  # ragged
>>> len(names), names.codes is None, names[0], names.blob.size
(3, True, 'naïve', 9)
>>> sex = StringColumn.from_strings(["female", "male"]).take([1, 0, 1])
>>> sex.codes, np.asarray(sex).tolist()  # a dictionary column
(array([1, 0, 1], dtype=int32), ['male', 'female', 'male'])
"""

from __future__ import annotations

import numbers
from itertools import accumulate

import numpy as np

__all__ = ["StringColumn", "as_strings", "concatenate_values"]


def _decode(offsets, blob, errors):
    """Entries ``offsets[k]..offsets[k + 1]`` of ``blob`` as ``str``."""
    base = int(offsets[0])
    data = blob[base:int(offsets[-1])].tobytes()
    bounds = (offsets - base).tolist()
    text = data.decode("utf-8", errors)
    if len(text) == len(data):  # one byte per character: same offsets
        return [text[a:b] for a, b in zip(bounds, bounds[1:])]
    return [data[a:b].decode("utf-8", errors)
            for a, b in zip(bounds, bounds[1:])]


def _ragged_take(offsets, blob, entries):
    """``(offsets, blob)`` of a ragged column holding ``entries``."""
    starts = offsets[entries]
    lengths = offsets[entries + 1] - starts
    out = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=out[1:])
    shift = np.repeat(starts - out[:-1], lengths)
    return out, blob[shift + np.arange(out[-1])]


class StringColumn:
    """UTF-8 strings as ``offsets`` (int64, entries + 1) into ``blob``
    (uint8), read through int32 ``codes`` when it has them."""

    __slots__ = ("offsets", "blob", "codes", "_words")
    dtype = np.dtype(object)

    def __init__(self, offsets, blob, codes=None, words=None):
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.blob = np.asarray(blob, dtype=np.uint8)
        self.codes = (
            None if codes is None else np.asarray(codes, dtype=np.int32)
        )
        self._words = words  # the entries as ``str``, when known

    @classmethod
    def from_strings(cls, strings, keep=False):
        """A ragged column of ``strings`` (lone surrogates kept, as
        ``surrogatepass`` encodes them); ``keep`` holds on to the
        ``str`` entries, so a vocabulary's rows read without decoding."""
        strings = list(strings)
        joined = "".join(strings)
        data = joined.encode("utf-8", "surrogatepass")
        lengths = map(len, strings)
        if len(data) != len(joined):  # not one byte per character
            encoded = [s.encode("utf-8", "surrogatepass") for s in strings]
            lengths, data = map(len, encoded), b"".join(encoded)
        offsets = np.fromiter(
            accumulate(lengths, initial=0), np.int64, len(strings) + 1
        )
        return cls(offsets, np.frombuffer(data, dtype=np.uint8), None,
                   strings if keep else None)

    @property
    def entries(self):
        """Entries the offsets describe (the vocabulary's size)."""
        return self.offsets.size - 1

    @property
    def nbytes(self):
        codes = 0 if self.codes is None else self.codes.nbytes
        return self.offsets.nbytes + self.blob.nbytes + codes

    def __len__(self):
        return self.entries if self.codes is None else self.codes.size

    def __repr__(self):
        shape = "ragged" if self.codes is None else "dictionary"
        return f"StringColumn({shape}, n={len(self)}, bytes={self.blob.size})"

    # -- row access --------------------------------------------------------

    def __getitem__(self, item):
        if isinstance(item, numbers.Integral):
            return self.take([item]).tolist()[0]
        if isinstance(item, slice):
            start, stop, step = item.indices(len(self))
            if step != 1:
                return self.take(np.arange(start, stop, step))
            stop = max(start, stop)
            if self.codes is not None:
                return self.with_codes(self.codes[start:stop])
            return StringColumn(self.offsets[start:stop + 1], self.blob)
        rows = np.asarray(item)
        if rows.dtype == bool:
            rows = np.flatnonzero(rows)
        return self.take(rows)

    def take(self, rows):
        """The rows ``rows`` (ints, negatives from the end): a
        dictionary column over the same blob, ragged ones included."""
        rows = np.asarray(rows, dtype=np.int64)
        if self.codes is not None:
            return self.with_codes(self.codes[rows])
        n = len(self)
        if rows.size and (rows.min() < -n or rows.max() >= n):
            raise IndexError(f"rows out of range [0, {n})")
        return self.with_codes(rows % max(n, 1))

    def with_codes(self, codes):
        """The dictionary column ``codes`` over these entries."""
        return StringColumn(self.offsets, self.blob, codes, self._words)

    def compact(self):
        """The same rows as a ragged column with no unused bytes."""
        if self.codes is not None:
            return StringColumn(
                *_ragged_take(self.offsets, self.blob, self.codes)
            )
        lo, hi = int(self.offsets[0]), int(self.offsets[-1])
        if lo == 0 and hi == self.blob.size:
            return self
        return StringColumn(self.offsets - lo, self.blob[lo:hi])

    def packed(self):
        """Itself, or compacted when the vocabulary outnumbers the
        rows (a gathered or sliced column): what is stored or sent."""
        if self.codes is not None and self.entries <= len(self):
            return self
        return self.compact()

    def vocabulary(self):
        """The entries as an object array of ``str``."""
        out = np.empty(self.entries, dtype=object)
        out[:] = self._words or _decode(
            self.offsets, self.blob, "surrogatepass")
        return out

    def tolist(self, errors="surrogatepass"):
        """The rows as a list of ``str`` (``errors="strict"``: a
        ``UnicodeDecodeError`` on an entry that is not UTF-8)."""
        column = self.packed() if self._words is None else self
        words = column._words if errors == "surrogatepass" else None
        words = words or _decode(column.offsets, column.blob, errors)
        if column.codes is None:
            return list(words)
        return list(map(words.__getitem__, column.codes.tolist()))

    def __array__(self, dtype=None, copy=None):
        out = np.empty(len(self), dtype=object)
        column = self.packed() if self._words is None else self
        if column.codes is None:
            out[:] = column.tolist()
        else:
            np.take(column.vocabulary(), column.codes, out=out)
        return out if dtype is None else out.astype(dtype)

    def __iter__(self):
        return iter(self.tolist())

    # ndarray look-alikes for callers that compare or size a column.
    __hash__ = None
    ndim = 1
    shape = property(lambda self: (len(self),))
    size = property(len)

    def __eq__(self, other):
        return np.asarray(self) == other

    def __ne__(self, other):
        return np.asarray(self) != other

    def __reduce__(self):
        column = self.packed()
        return StringColumn, (column.offsets, column.blob, column.codes)

    def invalid_row(self):
        """The first row that is not strict UTF-8 (a lone surrogate),
        or ``None``."""
        for row, value in enumerate(self.tolist()):
            if not value.isascii():
                try:
                    value.encode("utf-8")
                except UnicodeEncodeError:
                    return row
        return None

    @classmethod
    def concatenate(cls, parts):
        """One column of ``parts`` in order: a dictionary column when
        they share one vocabulary, else ragged."""
        first = parts[0]
        if all(p.codes is not None
               and np.array_equal(p.offsets, first.offsets)
               and np.array_equal(p.blob, first.blob) for p in parts):
            return first.with_codes(
                np.concatenate([p.codes for p in parts]))
        parts = [p.compact() for p in parts]
        shifts = np.cumsum([0] + [p.blob.size for p in parts[:-1]])
        return cls(
            np.concatenate([parts[0].offsets[:1]] + [
                p.offsets[1:] + shift for p, shift in zip(parts, shifts)
            ]),
            np.concatenate([p.blob for p in parts]),
        )


def as_strings(values):
    """``values`` as a :class:`StringColumn` when every element is a
    ``str``; any other column unchanged."""
    if (isinstance(values, np.ndarray) and values.dtype.kind == "O"
            and all(isinstance(v, str) for v in values.tolist())):
        return StringColumn.from_strings(values.tolist())
    return values


def concatenate_values(parts):
    """Value columns joined in order: string columns stay one."""
    if all(isinstance(p, StringColumn) for p in parts):
        return StringColumn.concatenate(parts)
    return np.concatenate([np.asarray(p) for p in parts])
