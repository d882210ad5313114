"""The batched attribute kernels are value-identical to the frozen
legacy generators.

Three layers of defence:

* **Golden fixtures** (``tests/golden/properties/fixtures.json``): the
  pre-rewrite outputs of every registered builtin generator over
  multiple seeds and dependency dtypes.  Both the frozen legacy code
  and the vectorised kernels (numpy and, when a compiler is present,
  C) must keep reproducing those exact values — including through the
  ``out=`` buffer path and for arbitrary id-range shards.
* **Property-based equivalence**: hypothesis drives random seeds,
  sizes and parameters through legacy-vs-vectorised comparisons, and
  checks the ragged PRNG API against per-instance substreams.
* **Regression pins** for the TextGenerator cdf boundary fix.
"""

from __future__ import annotations

import importlib.util
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.prng import RandomStream
from repro.properties import (
    MultiValueGenerator,
    TextGenerator,
    available_property_generators,
    create_property_generator,
)

from legacy_properties import LEGACY_GENERATORS, legacy_generator

GOLDEN_DIR = Path(__file__).resolve().parent / "golden" / "properties"

_spec = importlib.util.spec_from_file_location(
    "properties_golden_regenerate", GOLDEN_DIR / "regenerate.py"
)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

import json

FIXTURES = json.loads(
    (GOLDEN_DIR / "fixtures.json").read_text(encoding="utf-8")
)


@contextmanager
def property_impl(impl):
    """Run a block on the numpy or the C attribute kernels, through
    the one kernel switch."""
    with pytest.MonkeyPatch.context() as patch:
        if impl == "numpy":
            patch.setenv("REPRO_NO_CKERNEL", "1")
        else:
            patch.delenv("REPRO_NO_CKERNEL", raising=False)
        yield


def c_kernel_available():
    with property_impl("c"):
        from repro.properties._ckernel import load_property_ckernel

        return load_property_ckernel() is not None


HAS_CKERNEL = c_kernel_available()

IMPLS = ["numpy"] + (["c"] if HAS_CKERNEL else [])

CASE_SEEDS = [
    (case, seed)
    for case in sorted(golden.CASES)
    for seed in golden.SEEDS
]


def run_case(case, seed, factory, id_range=None):
    name, params, ids, stream, deps = golden.case_inputs(case, seed)
    generator = factory(name, **params)
    if id_range is not None:
        lo, hi = id_range
        ids = ids[lo:hi]
        deps = tuple(dep[lo:hi] for dep in deps)
    return generator.run_many(ids, stream, *deps)


class TestGoldenFixtures:
    def test_every_registered_generator_is_covered(self):
        covered = {spec[0] for spec in golden.CASES.values()}
        assert covered == set(available_property_generators())
        assert covered == set(LEGACY_GENERATORS)

    @pytest.mark.parametrize("case,seed", CASE_SEEDS)
    def test_legacy_matches_fixture(self, case, seed):
        """The frozen legacy code still produces the pinned values."""
        fixture = FIXTURES["cases"][case]["seeds"][str(seed)]
        values = run_case(case, seed, legacy_generator)
        assert golden.encode_values(values) == fixture

    @pytest.mark.parametrize("impl", IMPLS)
    @pytest.mark.parametrize("case,seed", CASE_SEEDS)
    def test_vectorised_matches_fixture(self, case, seed, impl):
        """The batched kernels reproduce the pre-rewrite values."""
        fixture = FIXTURES["cases"][case]["seeds"][str(seed)]
        with property_impl(impl):
            values = run_case(case, seed, create_property_generator)
        assert golden.encode_values(values) == fixture

    @pytest.mark.parametrize(
        "id_range", [(0, 0), (0, 17), (17, 31), (31, 48)]
    )
    @pytest.mark.parametrize("case", sorted(golden.CASES))
    def test_shard_slices_match_fixture(self, case, id_range):
        """Any id-range shard equals the same slice of the fixture —
        the contract that makes worker-count invisible."""
        seed = golden.SEEDS[0]
        fixture = FIXTURES["cases"][case]["seeds"][str(seed)]
        values = run_case(
            case, seed, create_property_generator, id_range=id_range
        )
        lo, hi = id_range
        encoded = golden.encode_values(values)
        assert encoded["values"] == fixture["values"][lo:hi]


TEXT_VOCABS = {
    "one": ["solo"],
    "two": ["yes", "no"],
    "social": [f"w{i}" for i in range(107)],
    "wide": [f"w{i}" for i in range(70_000)],
    "unicode": ["naïve", "日本語", "", "\ud800", "x\udfffy", "🙂", "a b"],
    "newline": ["line\nbreak", "plain", "more"],
}


@pytest.mark.skipif(not HAS_CKERNEL, reason="no C compiler")
class TestCKernelEquivalence:
    @given(
        seed=st.integers(0, 2**32),
        n=st.sampled_from([0, 1, 300, 8193]),
        vocab=st.sampled_from(sorted(TEXT_VOCABS)),
        exponent=st.sampled_from([0.0, 0.3, 1.0, 2.5]),
        small_buffer=st.booleans(),
    )
    @example(seed=1, n=8193, vocab="wide", exponent=0.0, small_buffer=True)
    @example(seed=2, n=300, vocab="unicode", exponent=1.0, small_buffer=True)
    @example(seed=3, n=300, vocab="newline", exponent=1.0, small_buffer=False)
    @example(seed=4, n=300, vocab="one", exponent=0.0, small_buffer=False)
    @example(seed=5, n=8193, vocab="two", exponent=2.5, small_buffer=False)
    @settings(max_examples=30, deadline=None)
    def test_ragged_text_matches_numpy(
        self, seed, n, vocab, exponent, small_buffer
    ):
        """Compiled sentence bytes == the numpy join, word for word.

        Covers the ``linspace`` cdf (exponent 0), a vocabulary past
        the 2**16 guide-bucket cap, multi-byte / empty / lone-surrogate
        words, a ``'\\n'`` word (numpy path either way), a second
        block, and a one-sentence buffer refilled row by row.
        """
        import repro.properties.text as text

        params = dict(
            vocabulary=TEXT_VOCABS[vocab], min_words=1, max_words=5,
            zipf_exponent=exponent,
        )
        ids = np.arange(n, dtype=np.int64)
        with property_impl("numpy"):
            a = TextGenerator(**params).run_many(
                ids, RandomStream(seed, "ck.text")
            )
        with property_impl("c"), pytest.MonkeyPatch.context() as mp:
            if small_buffer:
                mp.setattr(text, "_TEXT_BYTES", 1)
            b = TextGenerator(**params).run_many(
                ids, RandomStream(seed, "ck.text")
            )
        assert a.dtype == b.dtype
        assert list(a) == list(b)

    @given(
        seed=st.integers(0, 2**32),
        n=st.integers(0, 200),
        k=st.integers(1, 200),
        exponent=st.floats(0.0, 2.5),
    )
    @settings(max_examples=30, deadline=None)
    def test_multivalue_picks_match_numpy(self, seed, n, k, exponent):
        params = dict(
            values=[f"v{i}" for i in range(k)],
            min_size=1, max_size=min(4, k), exponent=exponent,
        )
        ids = np.arange(n, dtype=np.int64)
        with property_impl("numpy"):
            a = MultiValueGenerator(**params).run_many(
                ids, RandomStream(seed, "ck.mv")
            )
        with property_impl("c"):
            b = MultiValueGenerator(**params).run_many(
                ids, RandomStream(seed, "ck.mv")
            )
        assert list(a) == list(b)


class TestRaggedDraws:
    @given(
        seed=st.integers(0, 2**63),
        lengths=st.lists(st.integers(0, 17), max_size=40),
        base=st.integers(0, 2**40),
    )
    @settings(max_examples=60, deadline=None)
    def test_uniform_ragged_equals_per_instance(
        self, seed, lengths, base
    ):
        """Batched ragged draws == one substream object per instance."""
        stream = RandomStream(seed, "ragged")
        ids = base + np.arange(len(lengths), dtype=np.int64) * 7
        lengths = np.asarray(lengths, dtype=np.int64)
        flat, offsets = stream.uniform_ragged(ids, lengths)
        assert offsets[-1] == lengths.sum()
        for j, instance in enumerate(ids):
            expected = stream.indexed_substream(int(instance)).uniform(
                np.arange(lengths[j], dtype=np.int64)
            )
            got = flat[offsets[j]:offsets[j + 1]]
            assert got.shape == expected.shape
            assert (got == expected).all()

    @given(seed=st.integers(0, 2**63), n=st.integers(0, 64))
    @settings(max_examples=30, deadline=None)
    def test_indexed_substream_seeds(self, seed, n):
        stream = RandomStream(seed)
        ids = np.arange(n, dtype=np.int64) * 13
        seeds = stream.indexed_substream_seeds(ids)
        for j, instance in enumerate(ids):
            assert int(seeds[j]) == \
                stream.indexed_substream(int(instance)).seed

    def test_ragged_rejects_misaligned_lengths(self):
        stream = RandomStream(1)
        with pytest.raises(ValueError, match="align"):
            stream.uniform_ragged([1, 2, 3], [1, 2])

    def test_ragged_rejects_negative_lengths(self):
        stream = RandomStream(1)
        with pytest.raises(ValueError, match="nonnegative"):
            stream.uniform_ragged([1, 2], [1, -1])


class TestImplSelection:
    def test_switch_is_read_per_call(self):
        from repro.properties._ckernel import (
            load_property_ckernel,
            resolve_impl,
        )

        with property_impl("numpy"):
            assert resolve_impl() == "numpy"
            assert load_property_ckernel() is None
        with property_impl("c"):
            assert resolve_impl() == ("c" if HAS_CKERNEL else "numpy")


STOCHASTIC_PARAMS = {
    "categorical": lambda k: dict(
        values=[f"v{i}" for i in range(k)],
        weights=list(range(1, k + 1)),
    ),
    "weighted_dict": lambda k: dict(
        values=[f"v{i}" for i in range(k)], exponent=1.1
    ),
    "zipf_int": lambda k: dict(k=k, exponent=0.9),
    "uuid": lambda k: dict(),
    "composite_key": lambda k: dict(prefix="node"),
    "uniform_int": lambda k: dict(low=0, high=k + 1),
    "uniform_float": lambda k: dict(low=-1.0, high=1.0),
    "date_range": lambda k: dict(start=0, end=10_000 + k),
    "sequence": lambda k: dict(start=k, step=3),
}


class TestVectorisedEqualsLegacy:
    @given(
        name=st.sampled_from(sorted(STOCHASTIC_PARAMS)),
        seed=st.integers(0, 2**32),
        n=st.integers(0, 200),
        k=st.integers(1, 60),
    )
    @settings(max_examples=80, deadline=None)
    def test_no_dependency_generators(self, name, seed, n, k):
        params = STOCHASTIC_PARAMS[name](k)
        ids = np.arange(n, dtype=np.int64)
        stream = RandomStream(seed, f"hyp.{name}")
        a = legacy_generator(name, **params).run_many(
            ids, stream
        )
        b = create_property_generator(name, **params).run_many(
            ids, stream
        )
        assert a.dtype == b.dtype
        assert list(a) == list(b)

    @given(
        seed=st.integers(0, 2**32),
        n=st.integers(0, 150),
        vocab_size=st.integers(1, 40),
        lo=st.integers(1, 4),
        extra=st.integers(0, 6),
        exponent=st.sampled_from([0.0, 0.7, 1.0, 1.8]),
    )
    @settings(max_examples=50, deadline=None)
    def test_text(self, seed, n, vocab_size, lo, extra, exponent):
        params = dict(
            vocabulary=[f"w{i}" for i in range(vocab_size)],
            min_words=lo, max_words=lo + extra,
            zipf_exponent=exponent,
        )
        ids = np.arange(n, dtype=np.int64)
        stream = RandomStream(seed, "hyp.text")
        a = legacy_generator("text", **params).run_many(
            ids, stream
        )
        b = create_property_generator("text", **params).run_many(
            ids, stream
        )
        assert list(a) == list(b)

    @pytest.mark.parametrize("impl", IMPLS)
    @pytest.mark.parametrize("block", [1, 7, 50, 51])
    def test_text_blocks_never_change_a_value(
        self, impl, block, monkeypatch
    ):
        """``run_many`` works in blocks of ids to bound its word
        lists; every other test here is shorter than one block."""
        import repro.properties.text as text

        monkeypatch.setattr(text, "_BLOCK_ROWS", block)
        params = dict(
            vocabulary=[f"w{i}" for i in range(30)],
            min_words=1, max_words=9,
        )
        ids = np.arange(400, 500, 2, dtype=np.int64)[::-1]
        stream = RandomStream(11, "block.text")
        expected = legacy_generator("text", **params).run_many(
            ids, stream
        )
        with property_impl(impl):
            got = create_property_generator("text", **params).run_many(
                ids, stream
            )
        assert got.dtype == expected.dtype
        assert list(got) == list(expected)

    @given(
        seed=st.integers(0, 2**32),
        n=st.integers(0, 150),
        k=st.integers(1, 30),
        hi=st.integers(1, 5),
    )
    @settings(max_examples=50, deadline=None)
    def test_multivalue_exact(self, seed, n, k, hi):
        params = dict(
            values=[f"v{i}" for i in range(k)],
            min_size=1, max_size=min(hi, k), exponent=1.1,
        )
        ids = np.arange(n, dtype=np.int64)
        stream = RandomStream(seed, "hyp.mv")
        a = legacy_generator("multi_value", **params).run_many(
            ids, stream
        )
        b = create_property_generator("multi_value", **params).run_many(
            ids, stream
        )
        assert list(a) == list(b)

    @given(
        seed=st.integers(0, 2**32),
        n=st.integers(1, 150),
        num_keys=st.integers(1, 6),
        with_default=st.booleans(),
    )
    @settings(max_examples=50, deadline=None)
    def test_conditional(self, seed, n, num_keys, with_default):
        keys = [f"k{i}" for i in range(num_keys)]
        table = {
            key: ([f"{key}_v{j}" for j in range(3)], [3, 2, 1])
            for key in keys
        }
        params = dict(table=table)
        if with_default:
            params["default"] = (["fallback"], None)
            keys = keys + ["unseen"]
        dep = np.empty(n, dtype=object)
        dep[:] = [keys[i % len(keys)] for i in range(n)]
        ids = np.arange(n, dtype=np.int64)
        stream = RandomStream(seed, "hyp.cond")
        a = legacy_generator("conditional", **params).run_many(
            ids, stream, dep
        )
        b = create_property_generator("conditional", **params).run_many(
            ids, stream, dep
        )
        assert list(a) == list(b)



def _conditional_reference(generator, ids, stream, *deps):
    """The conditional draw row by row: the row's ``(values,
    weights)`` from ``_lookup``, an inverse transform through its cdf
    with ``searchsorted(side="right")``, then the ``len - 1`` clamp."""
    out = []
    for key, u in zip(zip(*(list(dep) for dep in deps)),
                      stream.uniform(ids)):
        values, weights = generator._lookup(key)
        w = (np.full(len(values), 1.0 / len(values)) if weights is None
             else np.asarray(weights, dtype=np.float64))
        cdf = np.cumsum(w / w.sum())
        code = int(np.searchsorted(cdf, u, side="right"))
        out.append(values[min(code, len(values) - 1)])
    return out


class TestConditionalDraw:
    """``conditional`` draws every row of a page in one pass over
    tables built once per instance; the values are the per-row
    inverse transform's."""

    @given(
        seed=st.integers(0, 2**32),
        n=st.integers(0, 120),
        sizes=st.lists(st.integers(1, 9), min_size=1, max_size=8),
        with_default=st.booleans(),
        pairs=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_the_per_row_reference(self, seed, n, sizes,
                                          with_default, pairs):
        rng = np.random.default_rng(seed)
        keys = [(f"c{i}", "f") if pairs else f"c{i}"
                for i in range(len(sizes))]
        table = {key: ([f"{i}v{j}" for j in range(size)],
                       None if i % 3 == 0 else rng.uniform(0.1, 5, size))
                 for i, (key, size) in enumerate(zip(keys, sizes))}
        params = dict(table=table)
        if with_default:
            params["default"] = (["fallback", "other"], [1, 3])
            keys = keys + [("unseen", "f") if pairs else "unseen"]
        rows = [keys[int(i)] for i in rng.integers(0, len(keys), n)]
        deps = [np.array([row[d] for row in rows] if pairs else rows,
                         dtype=object) for d in range(1 + pairs)]
        ids = rng.permutation(1000)[:n].astype(np.int64)
        stream = RandomStream(seed, "hyp.cond")
        generator = create_property_generator("conditional", **params)
        got = generator.run_many(ids, stream, *deps)
        assert list(got) == _conditional_reference(
            generator, ids, stream, *deps)

    def test_unseen_key_without_default_keeps_its_error(self):
        generator = create_property_generator(
            "conditional", table={"a": (["x"], None)})
        with pytest.raises(
                KeyError,
                match="no conditional entry for 'unseen' and no default"):
            generator.run_many(
                np.arange(3), RandomStream(1, "t"),
                np.array(["a", "unseen", "a"], dtype=object))

    def test_calls_over_other_keys_equal_fresh_instances(self):
        params = dict(
            table={key: ([f"{key}{j}" for j in range(4)], [4, 3, 2, 1])
                   for key in "abcd"},
            default=(["z"], None))
        shared = create_property_generator("conditional", **params)
        stream = RandomStream(5, "t")
        for keys in ("ab", "cdq", "dbaq"):
            dep = np.array(list(keys) * 7, dtype=object)
            ids = np.arange(dep.size, dtype=np.int64) * 3
            fresh = create_property_generator("conditional", **params)
            assert list(shared.run_many(ids, stream, dep)) == list(
                fresh.run_many(ids, stream, dep))

class TestMultiValueParameters:
    def test_method_is_not_a_parameter(self):
        """One sampler: a recipe that still sets ``method`` gets the
        generator's unexpected-parameter error."""
        with pytest.raises(TypeError, match="unexpected parameter"):
            MultiValueGenerator(values=list("abcd"), method="es")


class TestTextCdfBoundary:
    """Regression pins for the cdf[-1] fix: searchsorted can never
    index past the vocabulary, with no clamp biasing the last word."""

    def test_cdf_final_step_is_exactly_one(self):
        generator = TextGenerator(
            vocabulary=[f"w{i}" for i in range(1000)],
            zipf_exponent=1.0,
        )
        cdf = generator._tables()[0]
        assert cdf[-1] == 1.0
        assert (np.diff(cdf) >= 0).all()

    @pytest.mark.parametrize("exponent", [0.0, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("vocab_size", [1, 2, 7, 1000])
    def test_uniform_boundary_never_overflows(
        self, vocab_size, exponent
    ):
        """Draws at the uniform() == 1.0 boundary stay in range.

        ``uniform`` emits at most ``(2**53 - 1) / 2**53``; the fix
        must keep even that draw — and, defensively, 1.0 itself minus
        one ulp — strictly below ``cdf[-1]`` so ``searchsorted``
        returns a valid word index without clamping.
        """
        generator = TextGenerator(
            vocabulary=[f"w{i}" for i in range(vocab_size)],
            zipf_exponent=exponent,
        )
        cdf = generator._tables()[0]
        max_uniform = (2**53 - 1) / 2**53
        points = [0.0, max_uniform, np.nextafter(1.0, 0.0)]
        for c in cdf[:-1]:
            points += [np.nextafter(float(c), 0.0), float(c)]
        boundary = np.array(points)
        codes = generator._word_codes(boundary, cdf)
        assert codes.max() < vocab_size
        assert codes.min() >= 0

    @pytest.mark.parametrize("impl", IMPLS)
    def test_boundary_draw_end_to_end(self, impl):
        """A draw one ulp below 1.0 lands on a valid word through the
        public run_many path (stubbed word stream).  The compiled path
        draws its own uniforms, so the stub hands it the substream seed
        whose first draw is that one: SplitMix64's finaliser inverted
        at the all-ones 53-bit output."""
        vocab = ["head", "tail"]
        generator = TextGenerator(
            vocabulary=vocab, min_words=1, max_words=1,
            zipf_exponent=1.0,
        )
        top = np.nextafter(1.0, 0.0)
        boundary_seed = _seed_of_first_draw(((1 << 53) - 1) << 11)
        assert RandomStream(boundary_seed).uniform(0) == top

        class BoundaryStream:
            def substream(self, name):
                return self

            def randint(self, ids, low, high):
                return np.ones(np.asarray(ids).size, dtype=np.int64)

            def indexed_substream_seeds(self, ids):
                return np.full(
                    np.asarray(ids).size, boundary_seed, dtype=np.uint64
                )

            def uniform_ragged(self, ids, lengths):
                total = int(np.asarray(lengths).sum())
                offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
                np.cumsum(lengths, out=offsets[1:])
                return np.full(total, top), offsets

        with property_impl(impl):
            out = generator.run_many(
                np.arange(3, dtype=np.int64), BoundaryStream()
            )
        assert list(out) == ["tail", "tail", "tail"]


def _seed_of_first_draw(bits):
    """The stream seed whose first SplitMix64 output is ``bits``."""
    mask = (1 << 64) - 1

    def unshift(y, k):  # inverse of y ^ (y >> k)
        x = y
        for _ in range(64 // k):
            x = y ^ (x >> k)
        return x

    z = unshift(bits, 31)
    z = unshift(z * pow(0x94D049BB133111EB, -1, 1 << 64) & mask, 27)
    z = unshift(z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & mask, 30)
    return (z - 0x9E3779B97F4A7C15) & mask
