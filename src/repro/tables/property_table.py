"""Property Tables: the paper's ``[id: Long, value: type]`` relation.

DataSynth stores one Property Table (PT) per ``<node type, property>``
and ``<edge type, property>`` pair (Section 4.1).  Ids are dense
``0..n-1`` per type, which lets us store a PT as a single value column —
the id column is implicit in the row position — while still exposing the
two-column relational view the paper describes.
"""

from __future__ import annotations

import numpy as np

from .ranged import PropertyRows
from .strings import StringColumn

__all__ = ["PropertyTable", "value_codes"]

_SUPPORTED_KINDS = {"i", "u", "f", "b", "U", "O", "M"}


class PropertyTable(PropertyRows):
    """A columnar ``[id, value]`` table with dense ids.

    Parameters
    ----------
    name:
        qualified name, conventionally ``"Type.property"``.
    values:
        1-D array-like of property values (or a
        :class:`~repro.tables.strings.StringColumn`); row ``i`` is the
        value of the instance with id ``i``.
    """

    __slots__ = ("name", "values")

    def __init__(self, name, values):
        if not isinstance(values, StringColumn):
            values = np.asarray(values)
        if values.ndim != 1:
            raise ValueError(
                f"PT {name!r}: values must be 1-D, got shape {values.shape}"
            )
        if values.dtype.kind not in _SUPPORTED_KINDS:
            raise TypeError(
                f"PT {name!r}: unsupported value dtype {values.dtype}"
            )
        self.name = str(name)
        self.values = values

    def __len__(self):
        return len(self.values)

    def __repr__(self):
        return (
            f"PropertyTable(name={self.name!r}, n={len(self)}, "
            f"dtype={self.values.dtype})"
        )

    def __eq__(self, other):
        if not isinstance(other, PropertyTable):
            return NotImplemented
        return self.name == other.name and np.array_equal(
            self.values, other.values
        )

    # -- relational view ---------------------------------------------------

    @property
    def dtype(self):
        """The value column's dtype (every PT, stored or not, has one)."""
        return self.values.dtype

    @property
    def ids(self):
        """The implicit dense id column ``0..n-1``."""
        return np.arange(len(self.values), dtype=np.int64)

    def rows(self):
        """Iterate ``(id, value)`` rows — the paper's 2-column relation."""
        for i, v in enumerate(self.values):
            yield i, v

    def read_range(self, start, stop):
        """Value rows ``[start, stop)`` as a zero-copy view."""
        start, stop = self.check_range(start, stop)
        return self.values[start:stop]

    def to_property_table(self):
        """Already resident: itself."""
        return self

    def value_of(self, instance_id):
        """Value of one instance (bounds-checked)."""
        idx = int(instance_id)
        if not 0 <= idx < len(self.values):
            raise IndexError(
                f"PT {self.name!r}: id {idx} out of range [0, {len(self)})"
            )
        return self.values[idx]

    def gather(self, instance_ids):
        """Vectorised lookup of many ids (used when generating edge
        properties that depend on endpoint node properties)."""
        ids = np.asarray(instance_ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= len(self.values)):
            raise IndexError(
                f"PT {self.name!r}: ids out of range [0, {len(self)})"
            )
        return self.values[ids]

    # -- categorical helpers -------------------------------------------------

    def categories(self):
        """Sorted unique values and their counts.

        Returns
        -------
        (values, counts):
            as produced by ``np.unique(..., return_counts=True)``.
        """
        _, categories, counts = value_codes(self.values)
        return categories, counts

    def codes(self):
        """Encode values as dense category codes.

        Returns
        -------
        (codes, categories):
            ``codes[i]`` is the index of ``values[i]`` within the sorted
            unique ``categories``.  This is the form SBM-Part consumes.
        """
        codes, categories, _ = value_codes(self.values)
        return codes, categories

    def group_counts(self):
        """Counts per category code — the group sizes ``Q`` of Section 4.2."""
        return value_codes(self.values)[2]

    def remap(self, mapping, name=None):
        """Return a new PT whose row ``i`` holds ``values[mapping[i]]``.

        This is how a matching ``f`` (structure node id -> PT row id) is
        applied to produce the final per-node property column.
        """
        mapping = np.asarray(mapping, dtype=np.int64)
        return PropertyTable(name or self.name, self.gather(mapping))

    def head(self, n=5):
        """First ``n`` rows as a list of tuples, for display."""
        return [(i, self.values[i]) for i in range(min(n, len(self)))]


def value_codes(values):
    """``(codes, categories, counts)`` of a value column: the sorted
    unique values, each row's index among them (int64) and the rows
    per value (int64), as ``np.unique`` returns them.

    A dictionary :class:`~repro.tables.strings.StringColumn` ranks
    its vocabulary once and counts the codes with ``bincount``; any
    other column is sorted whole.
    """
    if isinstance(values, StringColumn) and values.codes is not None:
        categories, rank = np.unique(
            values.vocabulary(), return_inverse=True
        )
        codes = rank.reshape(-1)[values.codes]
        counts = np.bincount(codes, minlength=categories.size)
        present = counts > 0
        if not present.all():  # entries no row holds are no category
            codes = (np.cumsum(present) - 1)[codes]
            categories, counts = categories[present], counts[present]
        return codes.astype(np.int64), categories, counts.astype(np.int64)
    categories, codes, counts = np.unique(
        np.asarray(values), return_inverse=True, return_counts=True
    )
    return (codes.reshape(-1).astype(np.int64), categories,
            counts.astype(np.int64))
