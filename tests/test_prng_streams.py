"""Tests for RandomStream: the paper's r(i) contract."""

from __future__ import annotations

import numpy as np
import pytest

from repro.prng import RandomStream, derive_seed, streams


class TestRandomStreamCore:
    def test_call_is_deterministic(self, stream):
        assert int(stream(123)) == int(stream(123))

    def test_named_streams_independent(self):
        a = RandomStream(1, "Person.country")
        b = RandomStream(1, "Person.name")
        assert a.seed != b.seed
        assert int(a(0)) != int(b(0))

    def test_equality_and_hash(self):
        assert RandomStream(3, "x") == RandomStream(3, "x")
        assert hash(RandomStream(3, "x")) == hash(RandomStream(3, "x"))
        assert RandomStream(3, "x") != RandomStream(4, "x")

    def test_raw_alias(self, stream):
        assert int(stream.raw(9)) == int(stream(9))

    def test_repr_contains_name(self):
        assert "label" in repr(RandomStream(1, "label"))


class TestUniform:
    def test_range(self, stream):
        u = stream.uniform(np.arange(10_000))
        assert (u >= 0).all() and (u < 1).all()

    def test_mean_and_spread(self, stream):
        u = stream.uniform(np.arange(100_000))
        assert abs(u.mean() - 0.5) < 0.01
        assert abs(u.std() - np.sqrt(1 / 12)) < 0.01

    def test_random_access(self, stream):
        whole = stream.uniform(np.arange(100))
        single = stream.uniform(np.int64(37))
        assert whole[37] == single


class TestRandint:
    def test_bounds(self, stream):
        values = stream.randint(np.arange(10_000), 5, 12)
        assert values.min() >= 5
        assert values.max() <= 11

    def test_covers_range(self, stream):
        values = stream.randint(np.arange(10_000), 0, 7)
        assert set(np.unique(values)) == set(range(7))

    def test_empty_range_raises(self, stream):
        with pytest.raises(ValueError, match="empty range"):
            stream.randint(np.arange(3), 5, 5)


class TestNormal:
    def test_moments(self, stream):
        values = stream.normal(np.arange(100_000), mean=2.0, std=3.0)
        assert abs(values.mean() - 2.0) < 0.05
        assert abs(values.std() - 3.0) < 0.05

    def test_deterministic(self, stream):
        a = stream.normal(np.arange(10))
        b = stream.normal(np.arange(10))
        assert np.array_equal(a, b)


class TestSubstreams:
    def test_substream_differs(self, stream):
        a = stream.substream("alpha")
        b = stream.substream("beta")
        assert a.seed != b.seed
        assert a.seed != stream.seed

    def test_indexed_substreams_differ(self, stream):
        assert (
            stream.indexed_substream(0).seed
            != stream.indexed_substream(1).seed
        )

    def test_indexed_substream_no_overflow_warning(self, stream):
        with np.errstate(over="raise"):
            # Must not raise despite modular arithmetic internally.
            stream.indexed_substream(2**62)


class TestPermutation:
    @pytest.fixture(autouse=True, params=["compiled", "python"])
    def path(self, request, monkeypatch):
        """Both bodies (the compiled one where a kernel loads)."""
        if request.param == "python":
            monkeypatch.setattr(
                streams, "load_prng_ckernel", lambda: None
            )

    def test_is_permutation(self, stream):
        perm = stream.permutation(500)
        assert np.array_equal(np.sort(perm), np.arange(500))

    def test_deterministic(self, stream):
        assert np.array_equal(stream.permutation(64), stream.permutation(64))

    def test_not_identity(self, stream):
        perm = stream.permutation(100)
        assert (perm != np.arange(100)).any()

    def test_edge_sizes(self, stream):
        assert stream.permutation(0).size == 0
        assert np.array_equal(stream.permutation(1), [0])


class TestChoice:
    def test_respects_weights(self, stream):
        draws = stream.choice(np.arange(50_000), [0.7, 0.2, 0.1])
        freq = np.bincount(draws, minlength=3) / 50_000
        assert abs(freq[0] - 0.7) < 0.02
        assert abs(freq[2] - 0.1) < 0.02

    def test_rejects_bad_weights(self, stream):
        with pytest.raises(ValueError):
            stream.choice(np.arange(3), [])
        with pytest.raises(ValueError):
            stream.choice(np.arange(3), [-1.0, 2.0])
        with pytest.raises(ValueError):
            stream.choice(np.arange(3), [0.0, 0.0])


class TestDeriveSeed:
    def test_path_sensitivity(self):
        assert derive_seed(1, "a", "b") != derive_seed(1, "ab")
        assert derive_seed(1, "a", "b") != derive_seed(1, "b", "a")

    def test_root_sensitivity(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_stable(self):
        assert derive_seed(42, "task", "sub") == derive_seed(
            42, "task", "sub"
        )
