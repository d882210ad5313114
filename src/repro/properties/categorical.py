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
  work), then runs one vectorised inverse transform *per distinct
  key* instead of one scalar draw per row, a group-by over the
  conditional table.

When every value is a ``str`` the drawn codes are the output: a
dictionary :class:`~repro.tables.StringColumn` over the encoded value
list (for ``conditional``, over the lists of the keys drawn, back to
back), so no row is ever a Python ``str``.  Other values keep an
object array.
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


class _Factorizer(dict):
    """Interns keys to dense codes in one C-level pass.

    ``map(factorizer.__getitem__, keys)`` stays in C for every already
    -seen key; ``__missing__`` fires once per distinct key, recording
    first-seen order.  This is the cheapest way to factorise an object
    key column — ``np.unique`` needs sortable objects and measures ~4x
    slower on string columns.
    """

    __slots__ = ("keys_in_order",)

    def __init__(self):
        super().__init__()
        self.keys_in_order = []

    def __missing__(self, key):
        code = len(self.keys_in_order)
        self.keys_in_order.append(key)
        self[key] = code
        return code


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

    def _cdf(self):
        values = self._params["values"]
        weights = self._params.get("weights")
        if weights is None:
            w = np.full(len(values), 1.0 / len(values))
        else:
            w = np.asarray(weights, dtype=np.float64)
            w = w / w.sum()
        return np.cumsum(w)

    def _tables(self):
        """Cached ``(cdf, value_array)`` for the current parameters."""
        values = self._params["values"]
        key = (id(values), len(values), id(self._params.get("weights")))
        cache = getattr(self, "_cache", None)
        if cache is not None and cache[0] == key:
            return cache[1], cache[2]
        cdf = self._cdf()
        if self.output_dtype() == np.int64:
            arr = np.asarray(list(values), dtype=np.int64)
        else:
            arr = _value_array(values)
        self._cache = (key, cdf, arr)
        return cdf, arr

    def run_many(self, ids, stream, *dependency_arrays):
        if "values" not in self._params:
            raise ValueError("CategoricalGenerator needs 'values'")
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
            for key, pair in table.items():
                values, weights = pair
                if len(values) == 0:
                    raise ValueError(f"key {key!r}: empty value list")
                if weights is not None and len(weights) != len(values):
                    raise ValueError(f"key {key!r}: weights misaligned")

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

    def _group(self, key):
        """``(values, cdf)`` for one (normalised) dependency key."""
        values, weights = self._lookup(key)
        if weights is None:
            w = np.full(len(values), 1.0 / len(values))
        else:
            w = np.asarray(weights, dtype=np.float64)
            w = w / w.sum()
        return values, np.cumsum(w)

    def run_many(self, ids, stream, *dependency_arrays):
        if "table" not in self._params:
            raise ValueError("ConditionalGenerator needs 'table'")
        if not dependency_arrays:
            raise ValueError(
                "ConditionalGenerator requires at least one dependency"
            )
        ids = np.asarray(ids, dtype=np.int64)
        u = stream.uniform(ids)
        columns = [np.asarray(dep) for dep in dependency_arrays]
        # Factorise rows by dependency key, then all rows of a key
        # share one vectorised draw.  The whole pass runs in C:
        # map(dict.__getitem__) over a (tuple-reusing) zip, with
        # __missing__ interning each distinct key once.
        if len(columns) == 1:
            keys = iter(columns[0].tolist())
        else:
            keys = zip(*(col.tolist() for col in columns))
        factorizer = _Factorizer()
        key_codes = np.fromiter(
            map(factorizer.__getitem__, keys),
            dtype=np.int64,
            count=ids.size,
        )
        groups = [
            self._group(key) for key in factorizer.keys_in_order
        ]
        # Over ``str`` values the rows are codes into the drawn keys'
        # value lists, back to back; otherwise the values themselves.
        flat = [value for values, _ in groups for value in values]
        vocabulary = None
        if all(isinstance(value, str) for value in flat):
            vocabulary = StringColumn.from_strings(flat, keep=True)
            starts = accumulate((len(v) for v, _ in groups), initial=0)
            tables = [np.arange(a, a + len(values), dtype=np.int32)
                      for a, (values, _) in zip(starts, groups)]
        else:
            tables = [_object_array(values) for values, _ in groups]
        out = np.empty(
            ids.size, dtype=self.output_dtype() if vocabulary is None
            else np.int32
        )
        if len(groups) == 1:
            np.take(tables[0], _draw_codes(groups[0][1], u), out=out)
        elif groups:
            order = np.argsort(key_codes, kind="stable")
            bounds = np.searchsorted(
                key_codes[order], np.arange(len(groups) + 1)
            )
            for gi, (_, cdf) in enumerate(groups):
                rows = order[bounds[gi]:bounds[gi + 1]]
                if rows.size:
                    out[rows] = tables[gi][_draw_codes(cdf, u[rows])]
        if vocabulary is None:
            return out
        return vocabulary.with_codes(out)


class WeightedDictGenerator(PropertyGenerator):
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
    access = "random"

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

    def _tables(self):
        values = self._params["values"]
        exponent = float(self._params.get("exponent", 1.0))
        key = (id(values), len(values), exponent)
        cache = getattr(self, "_cache", None)
        if cache is not None and cache[0] == key:
            return cache[1], cache[2]
        ranks = np.arange(1, len(values) + 1, dtype=np.float64)
        weights = ranks ** (-exponent)
        cdf = np.cumsum(weights / weights.sum())
        arr = _value_array(values)
        self._cache = (key, cdf, arr)
        return cdf, arr

    def run_many(self, ids, stream, *dependency_arrays):
        values = self._params.get("values")
        if values is None:
            raise ValueError("WeightedDictGenerator needs 'values'")
        ids = np.asarray(ids, dtype=np.int64)
        cdf, values_arr = self._tables()
        return _decode(
            values_arr, cdf, stream.uniform(ids), self.output_dtype()
        )
