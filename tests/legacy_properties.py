"""Frozen pre-vectorisation property generators (reference semantics).

Every ``run_many`` body below is the per-row implementation that
shipped before the batched attribute-kernel rewrite, copied verbatim.
They define the value contract: the vectorised generators in
``repro.properties`` must produce **identical values** for identical
``(ids, stream, deps)`` inputs, which ``tests/golden/properties/``
pins against committed fixtures (``regenerate.py`` writes them from
this module) and ``tests/test_properties_vectorised.py`` re-checks
property-based.

These classes subclass the live generators, so parameters, validation
and ``output_dtype`` stay shared — only the generation loop is frozen.
The module lives beside the tests because they are its only users.

Do not edit the loop bodies; regenerating the golden fixtures against
edited legacy code would silently re-pin new semantics.
"""

from __future__ import annotations

import numpy as np

from repro.properties.categorical import (
    CategoricalGenerator,
    ConditionalGenerator,
    WeightedDictGenerator,
)
from repro.properties.datetime_gen import (
    AfterDependencyGenerator,
    DateRangeGenerator,
)
from repro.properties.derived import FormulaGenerator, LookupGenerator
from repro.properties.identifier import (
    CompositeKeyGenerator,
    UuidGenerator,
)
from repro.properties.multivalue import MultiValueGenerator
from repro.properties.numeric import (
    NormalGenerator,
    SequenceGenerator,
    UniformFloatGenerator,
    UniformIntGenerator,
    ZipfIntGenerator,
)
from repro.properties.text import TemplateGenerator, TextGenerator

__all__ = ["LEGACY_GENERATORS", "legacy_generator"]


class LegacyTextGenerator(TextGenerator):
    def run_many(self, ids, stream, *dependency_arrays):
        vocab = self._params.get("vocabulary")
        if vocab is None:
            raise ValueError("TextGenerator needs 'vocabulary'")
        lo = int(self._params.get("min_words", 3))
        hi = int(self._params.get("max_words", 12))
        exponent = float(self._params.get("zipf_exponent", 1.0))
        if exponent > 0:
            ranks = np.arange(1, len(vocab) + 1, dtype=np.float64)
            weights = ranks ** (-exponent)
            cdf = np.cumsum(weights / weights.sum())
        else:
            cdf = np.linspace(
                1.0 / len(vocab), 1.0, len(vocab)
            )
        ids = np.asarray(ids, dtype=np.int64)
        lengths = stream.substream("len").randint(ids, lo, hi + 1)
        out = np.empty(ids.size, dtype=object)
        word_stream = stream.substream("words")
        for i, instance in enumerate(ids):
            per_instance = word_stream.indexed_substream(int(instance))
            draws = per_instance.uniform(
                np.arange(int(lengths[i]), dtype=np.int64)
            )
            codes = np.searchsorted(cdf, draws, side="right")
            out[i] = " ".join(
                vocab[min(int(c), len(vocab) - 1)] for c in codes
            )
        return out


class LegacyTemplateGenerator(TemplateGenerator):
    def run_many(self, ids, stream, *dependency_arrays):
        template = self._params.get("template")
        if template is None:
            raise ValueError("TemplateGenerator needs 'template'")
        ids = np.asarray(ids, dtype=np.int64)
        columns = [np.asarray(dep) for dep in dependency_arrays]
        out = np.empty(ids.size, dtype=object)
        for i in range(ids.size):
            args = [col[i] for col in columns]
            out[i] = template.format(*args, id=int(ids[i]))
        return out


class LegacyCategoricalGenerator(CategoricalGenerator):
    def _cdf(self):
        values = self._params["values"]
        weights = self._params.get("weights")
        if weights is None:
            w = np.full(len(values), 1.0 / len(values))
        else:
            w = np.asarray(weights, dtype=np.float64)
            w = w / w.sum()
        return np.cumsum(w)

    def run_many(self, ids, stream, *dependency_arrays):
        if "values" not in self._params:
            raise ValueError("CategoricalGenerator needs 'values'")
        ids = np.asarray(ids, dtype=np.int64)
        u = stream.uniform(ids)
        codes = np.searchsorted(self._cdf(), u, side="right")
        values = self._params["values"]
        out = np.empty(ids.size, dtype=self.output_dtype())
        for i, code in enumerate(codes):
            out[i] = values[min(int(code), len(values) - 1)]
        return out


class LegacyConditionalGenerator(ConditionalGenerator):
    def run_many(self, ids, stream, *dependency_arrays):
        if "table" not in self._params:
            raise ValueError("ConditionalGenerator needs 'table'")
        if not dependency_arrays:
            raise ValueError(
                "ConditionalGenerator requires at least one dependency"
            )
        ids = np.asarray(ids, dtype=np.int64)
        u = stream.uniform(ids)
        out = np.empty(ids.size, dtype=object)
        columns = [np.asarray(dep) for dep in dependency_arrays]
        cdf_cache = {}
        for i in range(ids.size):
            key = tuple(col[i] for col in columns)
            key = self._normalise_key(key)
            if key not in cdf_cache:
                values, weights = self._lookup(key)
                if weights is None:
                    w = np.full(len(values), 1.0 / len(values))
                else:
                    w = np.asarray(weights, dtype=np.float64)
                    w = w / w.sum()
                cdf_cache[key] = (values, np.cumsum(w))
            values, cdf = cdf_cache[key]
            code = int(np.searchsorted(cdf, u[i], side="right"))
            out[i] = values[min(code, len(values) - 1)]
        return out


class LegacyWeightedDictGenerator(WeightedDictGenerator):
    def run_many(self, ids, stream, *dependency_arrays):
        values = self._params.get("values")
        if values is None:
            raise ValueError("WeightedDictGenerator needs 'values'")
        exponent = float(self._params.get("exponent", 1.0))
        ranks = np.arange(1, len(values) + 1, dtype=np.float64)
        weights = ranks ** (-exponent)
        cdf = np.cumsum(weights / weights.sum())
        ids = np.asarray(ids, dtype=np.int64)
        codes = np.searchsorted(cdf, stream.uniform(ids), side="right")
        out = np.empty(ids.size, dtype=object)
        for i, code in enumerate(codes):
            out[i] = values[min(int(code), len(values) - 1)]
        return out


class LegacyMultiValueGenerator(MultiValueGenerator):
    def run_many(self, ids, stream, *dependency_arrays):
        values = self._params.get("values")
        if values is None:
            raise ValueError("MultiValueGenerator needs 'values'")
        lo = int(self._params.get("min_size", 1))
        hi = int(self._params.get("max_size", 3))
        exponent = float(self._params.get("exponent", 1.0))
        universe = len(values)
        ranks = np.arange(1, universe + 1, dtype=np.float64)
        weights = ranks ** (-exponent) if exponent > 0 \
            else np.ones(universe)

        ids = np.asarray(ids, dtype=np.int64)
        sizes = stream.substream("size").randint(ids, lo, hi + 1)
        pick_stream = stream.substream("picks")
        out = np.empty(ids.size, dtype=object)
        for i, instance in enumerate(ids):
            per_instance = pick_stream.indexed_substream(int(instance))
            chosen = []
            remaining = weights.copy()
            for draw in range(int(sizes[i])):
                code = int(
                    per_instance.choice(np.int64(draw), remaining)
                )
                chosen.append(code)
                remaining[code] = 0.0
            chosen.sort()
            out[i] = tuple(values[c] for c in chosen)
        return out


class LegacyUuidGenerator(UuidGenerator):
    def run_many(self, ids, stream, *dependency_arrays):
        ids = np.asarray(ids, dtype=np.int64)
        random_half = stream.raw(ids)
        time_ordered = bool(self._params.get("time_ordered", False))
        out = np.empty(ids.size, dtype=object)
        for i in range(ids.size):
            if time_ordered:
                high = int(ids[i])
            else:
                high = int(stream.substream("high").raw(np.int64(ids[i])))
            out[i] = f"{high & (2**64 - 1):016x}{int(random_half[i]):016x}"
        return out


class LegacyCompositeKeyGenerator(CompositeKeyGenerator):
    def run_many(self, ids, stream, *dependency_arrays):
        prefix = str(self._params.get("prefix", "id"))
        ids = np.asarray(ids, dtype=np.int64)
        out = np.empty(ids.size, dtype=object)
        for i in range(ids.size):
            out[i] = f"{prefix}-{int(ids[i])}"
        return out


class LegacyFormulaGenerator(FormulaGenerator):
    def run_many(self, ids, stream, *dependency_arrays):
        fn = self._params.get("function")
        if fn is None:
            raise ValueError("FormulaGenerator needs 'function'")
        ids = np.asarray(ids, dtype=np.int64)
        columns = [np.asarray(dep) for dep in dependency_arrays]
        if self._params.get("vectorized", False):
            return np.asarray(fn(*columns))
        out = np.empty(ids.size, dtype=self.output_dtype())
        for i in range(ids.size):
            out[i] = fn(*(col[i] for col in columns))
        return out


class LegacyLookupGenerator(LookupGenerator):
    def run_many(self, ids, stream, *dependency_arrays):
        mapping = self._params.get("mapping")
        if mapping is None:
            raise ValueError("LookupGenerator needs 'mapping'")
        if len(dependency_arrays) != 1:
            raise ValueError("LookupGenerator takes exactly one dependency")
        keys = np.asarray(dependency_arrays[0])
        has_default = "default" in self._params
        default = self._params.get("default")
        out = np.empty(keys.size, dtype=object)
        for i, key in enumerate(keys):
            if key in mapping:
                out[i] = mapping[key]
            elif has_default:
                out[i] = default
            else:
                raise KeyError(f"no mapping for {key!r} and no default")
        return out


class LegacyDateRangeGenerator(DateRangeGenerator):
    def run_many(self, ids, stream, *dependency_arrays):
        start = self._params.get("start")
        end = self._params.get("end")
        if start is None or end is None:
            raise ValueError("DateRangeGenerator needs 'start' and 'end'")
        values = stream.randint(
            np.asarray(ids, dtype=np.int64), int(start), int(end)
        )
        if self._params.get("granularity", "second") == "day":
            values = (values // 86_400) * 86_400
        return values


class LegacyAfterDependencyGenerator(AfterDependencyGenerator):
    def run_many(self, ids, stream, *dependency_arrays):
        if not dependency_arrays:
            raise ValueError(
                "AfterDependencyGenerator needs at least one dependency"
            )
        ids = np.asarray(ids, dtype=np.int64)
        base = np.asarray(dependency_arrays[0], dtype=np.int64)
        for dep in dependency_arrays[1:]:
            base = np.maximum(base, np.asarray(dep, dtype=np.int64))
        min_gap = int(self._params.get("min_gap", 1))
        max_gap = int(self._params.get("max_gap", 365 * 86_400))
        offsets = stream.randint(ids, min_gap, max_gap)
        return base + offsets


class LegacyUniformIntGenerator(UniformIntGenerator):
    def run_many(self, ids, stream, *dependency_arrays):
        high = self._params.get("high")
        if high is None:
            raise ValueError("UniformIntGenerator needs 'high'")
        low = int(self._params.get("low", 0))
        return stream.randint(np.asarray(ids, dtype=np.int64), low, int(high))


class LegacyUniformFloatGenerator(UniformFloatGenerator):
    def run_many(self, ids, stream, *dependency_arrays):
        low = float(self._params.get("low", 0.0))
        high = float(self._params.get("high", 1.0))
        u = stream.uniform(np.asarray(ids, dtype=np.int64))
        return low + u * (high - low)


class LegacyNormalGenerator(NormalGenerator):
    def run_many(self, ids, stream, *dependency_arrays):
        values = stream.normal(
            np.asarray(ids, dtype=np.int64),
            float(self._params.get("mean", 0.0)),
            float(self._params.get("std", 1.0)),
        )
        lo = self._params.get("clip_low")
        hi = self._params.get("clip_high")
        if lo is not None or hi is not None:
            values = np.clip(
                values,
                -np.inf if lo is None else lo,
                np.inf if hi is None else hi,
            )
        return values


class LegacyZipfIntGenerator(ZipfIntGenerator):
    def run_many(self, ids, stream, *dependency_arrays):
        k = self._params.get("k")
        if k is None:
            raise ValueError("ZipfIntGenerator needs 'k'")
        exponent = float(self._params.get("exponent", 1.0))
        ranks = np.arange(1, int(k) + 1, dtype=np.float64)
        weights = ranks ** (-exponent)
        cdf = np.cumsum(weights / weights.sum())
        codes = np.searchsorted(
            cdf, stream.uniform(np.asarray(ids, dtype=np.int64)),
            side="right",
        )
        return (codes + 1).astype(np.int64)


class LegacySequenceGenerator(SequenceGenerator):
    def run_many(self, ids, stream, *dependency_arrays):
        start = int(self._params.get("start", 0))
        step = int(self._params.get("step", 1))
        return start + step * np.asarray(ids, dtype=np.int64)


#: name -> frozen class, for every registered builtin generator.
LEGACY_GENERATORS = {
    "text": LegacyTextGenerator,
    "template": LegacyTemplateGenerator,
    "categorical": LegacyCategoricalGenerator,
    "conditional": LegacyConditionalGenerator,
    "weighted_dict": LegacyWeightedDictGenerator,
    "multi_value": LegacyMultiValueGenerator,
    "uuid": LegacyUuidGenerator,
    "composite_key": LegacyCompositeKeyGenerator,
    "formula": LegacyFormulaGenerator,
    "lookup": LegacyLookupGenerator,
    "date_range": LegacyDateRangeGenerator,
    "after_dependency": LegacyAfterDependencyGenerator,
    "uniform_int": LegacyUniformIntGenerator,
    "uniform_float": LegacyUniformFloatGenerator,
    "normal": LegacyNormalGenerator,
    "zipf_int": LegacyZipfIntGenerator,
    "sequence": LegacySequenceGenerator,
}


def legacy_generator(name, **params):
    """Instantiate the frozen pre-rewrite generator registered as ``name``."""
    if name not in LEGACY_GENERATORS:
        raise KeyError(
            f"no frozen legacy generator {name!r}; "
            f"available: {sorted(LEGACY_GENERATORS)}"
        )
    return LEGACY_GENERATORS[name](**params)
