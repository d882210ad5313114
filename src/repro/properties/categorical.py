"""Categorical property generators: dictionaries and conditionals.

These cover the distribution requirements of the running example:
``country`` follows a real-life-like marginal, ``sex`` is drawn
conditionally on nothing, and ``name`` follows ``P(name | country,
sex)`` — a conditional dictionary lookup driven by inverse-transform
sampling (Section 4.1 names this technique explicitly).

The batched rewrite keeps the legacy draws bit-for-bit (same cdf, same
``searchsorted``/clamp semantics — pinned by
``tests/golden/properties/``) but replaces the per-row value loops:

* the plain categorical draw is one ``searchsorted`` into a cached
  cdf;
* the conditional path factorises the dependency key columns into
  group codes (one dict probe per row — the only remaining Python
  work), then draws every row in one vectorised binary search of its
  own key's cdf, over tables built once per generator.

When every value is a ``str`` the drawn codes are the output: a
dictionary :class:`~repro.tables.StringColumn` over the encoded value
list (for ``conditional``, over every declared key's list and the
default's, back to back), so no row is ever a Python ``str``.  Other
values keep an object array.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from ..tables import StringColumn
from .base import PropertyGenerator

__all__ = ["CategoricalGenerator", "ConditionalGenerator", "WeightedDictGenerator"]


def _object_array(values):
    """``values`` as an object ndarray (no nested-sequence coercion)."""
    arr = np.empty(len(values), dtype=object)
    arr[:] = list(values)
    return arr


def _value_array(values):
    """The column rows draw from: a :class:`~repro.tables.StringColumn`
    vocabulary when every value is a ``str``, else an object array."""
    if all(isinstance(v, str) for v in values):
        return StringColumn.from_strings(values, keep=True)
    return _object_array(values)


def _cdf(count, weights):
    """Cumulative normalised ``weights`` of ``count`` values (uniform
    when ``None``)."""
    if weights is None:
        return np.cumsum(np.full(count, 1.0 / count))
    w = np.asarray(weights, dtype=np.float64)
    return np.cumsum(w / w.sum())


class _Memo(dict):
    """``key -> resolve(key)`` over a key column in one C-level pass.

    ``map(memo.__getitem__, keys)`` stays in C for every already-seen
    key; ``__missing__`` resolves each distinct key once.  This is the
    cheapest way to map an object key column — ``np.unique`` needs
    sortable objects and measures ~4x slower on string columns.
    """

    __slots__ = ("_resolve",)

    def __init__(self, resolve):
        super().__init__()
        self._resolve = resolve

    def __missing__(self, key):
        value = self[key] = self._resolve(key)
        return value


def _draw_codes(cdf, u):
    """Inverse-transform ``u`` through ``cdf``: value indices.

    Matches the legacy scalar loop exactly: ``searchsorted(...,
    side="right")`` then the defensive ``min(code, len - 1)`` clamp.
    """
    codes = np.searchsorted(cdf, u, side="right")
    return np.minimum(codes, cdf.size - 1, out=codes)


def _decode(values_arr, cdf, u, dtype):
    """The values ``u`` draws: codes over a string vocabulary, else an
    array of ``dtype``."""
    codes = _draw_codes(cdf, u)
    if isinstance(values_arr, StringColumn):
        return values_arr.with_codes(codes)
    return np.take(values_arr, codes).astype(dtype, copy=False)


class CategoricalGenerator(PropertyGenerator):
    """Draw values from a fixed list with optional weights.

    Parameters (via ``initialize``)
    -------------------------------
    values:
        sequence of possible values (any hashable/printable objects).
    weights:
        matching nonnegative weights (uniform when omitted).
    """

    name = "categorical"
    access = "random"

    def parameter_names(self):
        return {"values", "weights"}

    def _validate_params(self):
        values = self._params.get("values")
        weights = self._params.get("weights")
        if values is not None and len(values) == 0:
            raise ValueError("values must be non-empty")
        if weights is not None:
            if values is None or len(weights) != len(values):
                raise ValueError("weights must align with values")
            w = np.asarray(weights, dtype=np.float64)
            if (w < 0).any() or w.sum() <= 0:
                raise ValueError("weights must be nonnegative with mass")
        self._cache = None

    def _weights(self):
        return self._params.get("weights")

    def _tables(self):
        """``(cdf, value_array)``, built once per parameter set."""
        if getattr(self, "_cache", None) is None:
            values = self._params["values"]
            self._cache = _cdf(len(values), self._weights()), (
                np.asarray(list(values), dtype=np.int64)
                if self.output_dtype() == np.int64 else _value_array(values)
            )
        return self._cache

    def run_many(self, ids, stream, *dependency_arrays):
        if self._params.get("values") is None:
            raise ValueError(f"{type(self).__name__} needs 'values'")
        ids = np.asarray(ids, dtype=np.int64)
        cdf, values_arr = self._tables()
        return _decode(
            values_arr, cdf, stream.uniform(ids), self.output_dtype()
        )

    def output_dtype(self):
        values = self._params.get("values")
        if values is not None and all(
            isinstance(v, (int, np.integer)) for v in values
        ):
            return np.dtype(np.int64)
        return np.dtype(object)


class ConditionalGenerator(PropertyGenerator):
    """Conditional categorical: ``P(value | dep_1, ..., dep_j)``.

    Parameters (via ``initialize``)
    -------------------------------
    table:
        dict mapping a dependency-value tuple (or single value for one
        dependency) to ``(values, weights)`` pairs.
    default:
        fallback ``(values, weights)`` for unseen keys; without it an
        unseen key raises.

    This is the PG shape of ``P_name(X | country, sex)`` in Figure 1:
    ``table[("Germany", "female")] = (["Anna", "Lena", ...], [...])``.
    """

    name = "conditional"
    access = "random"

    def parameter_names(self):
        return {"table", "default"}

    def _validate_params(self):
        table = self._params.get("table")
        if table is not None:
            if not isinstance(table, dict) or not table:
                raise ValueError("table must be a non-empty dict")
            pairs = list(table.items())
            if self._params.get("default") is not None:
                pairs.append(("default", self._params["default"]))
            for key, pair in pairs:
                values, weights = pair
                if len(values) == 0:
                    raise ValueError(f"key {key!r}: empty value list")
                if weights is not None and len(weights) != len(values):
                    raise ValueError(f"key {key!r}: weights misaligned")
        self._compiled = None

    def num_dependencies(self):
        return None  # determined by the schema declaration

    @staticmethod
    def _normalise_key(key):
        if isinstance(key, tuple) and len(key) == 1:
            return key[0]
        return key

    def _lookup(self, key):
        table = self._params["table"]
        key = self._normalise_key(key)
        if key in table:
            return table[key]
        default = self._params.get("default")
        if default is None:
            raise KeyError(
                f"no conditional entry for {key!r} and no default"
            )
        return default

    def _tables(self):
        """Every declared key's draw, built once per parameter set:
        ``(group_of, starts, cdf, vocabulary)``.

        Group ``g`` — a key of ``table`` in declaration order, then
        ``default`` — owns entries ``starts[g]:starts[g + 1]`` of the
        flat ``cdf`` (its own cumulative weights, one ``+inf`` sentinel
        after the last group) and of the vocabulary: a
        :class:`~repro.tables.StringColumn` when every value is a
        ``str``, else an object array.  Threads that race here build
        equal tables, and either one is kept.
        """
        if self._compiled is None:
            table = self._params["table"]
            groups = [*table.values(), self._params.get("default")]
            groups = [pair for pair in groups if pair is not None]
            cdfs = [_cdf(len(values), weights) for values, weights in groups]
            self._compiled = (
                {key: g for g, key in enumerate(table)},
                np.array([0, *accumulate(map(len, cdfs))]),
                np.concatenate(cdfs + [[np.inf]]),
                _value_array([v for values, _ in groups for v in values]),
            )
        return self._compiled

    def run_many(self, ids, stream, *dependency_arrays):
        if "table" not in self._params:
            raise ValueError("ConditionalGenerator needs 'table'")
        if not dependency_arrays:
            raise ValueError(
                "ConditionalGenerator requires at least one dependency"
            )
        ids = np.asarray(ids, dtype=np.int64)
        group_of, starts, cdf, vocabulary = self._tables()
        columns = [np.asarray(dep) for dep in dependency_arrays]
        if len(columns) == 1:
            keys = iter(columns[0].tolist())
        else:
            keys = zip(*(col.tolist() for col in columns))

        def group(key):
            found = group_of.get(self._normalise_key(key))
            if found is None:
                self._lookup(key)  # a KeyError unless there is a default
                found = len(group_of)
            return found

        groups = np.fromiter(map(_Memo(group).__getitem__, keys),
                             dtype=np.int64, count=ids.size)
        # One inverse transform for every row at once: a binary search
        # of each row's own group of ``cdf`` for its first entry above
        # ``u`` — ``searchsorted(side="right")`` — then the legacy
        # ``min(code, len - 1)`` clamp (see ``_draw_codes``).
        u = stream.uniform(ids)
        lo, hi = starts[groups], starts[groups + 1]
        last = hi - 1
        for _ in range(int(np.diff(starts).max(initial=0)).bit_length()):
            mid = (lo + hi) >> 1
            right = (cdf[mid] <= u) & (lo < hi)
            lo = np.where(right, mid + 1, lo)
            hi = np.where(right, hi, mid)
        codes = np.minimum(lo, last, out=lo)
        if isinstance(vocabulary, StringColumn):
            return vocabulary.with_codes(codes)
        return np.take(vocabulary, codes).astype(self.output_dtype())


class WeightedDictGenerator(CategoricalGenerator):
    """Zipf-weighted draws from a (possibly large) dictionary.

    A common benchmark idiom: topics/interests follow a rank-skewed
    distribution over a word list.

    Parameters (via ``initialize``)
    -------------------------------
    values:
        the dictionary entries, assumed ordered by decreasing expected
        popularity.
    exponent:
        Zipf exponent (default 1.0).
    """

    name = "weighted_dict"

    def parameter_names(self):
        return {"values", "exponent"}

    def _validate_params(self):
        values = self._params.get("values")
        if values is not None and len(values) == 0:
            raise ValueError("values must be non-empty")
        exponent = self._params.get("exponent", 1.0)
        if exponent <= 0:
            raise ValueError("exponent must be positive")
        self._cache = None

    def _weights(self):
        exponent = float(self._params.get("exponent", 1.0))
        count = len(self._params["values"])
        return np.arange(1, count + 1, dtype=np.float64) ** (-exponent)

    def output_dtype(self):
        return np.dtype(object)
