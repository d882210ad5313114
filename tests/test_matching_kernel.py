"""Streaming-placement kernel: equivalence, goldens, tolerance, cold start.

The contract under test: the kernel (every implementation) places
nodes *identically* to the legacy per-node loops frozen in
``tests/legacy_matching.py``, except where the relative tie band
intentionally fixes the legacy absolute-tolerance bug (pinned by the
large golden fixture; see ``tests/golden/matching/regenerate.py``).
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.matching import (
    available_impls,
    bipartite_edge_count_target,
    bipartite_sbm_part_match,
    edge_count_target,
    prepare_match_stream,
    sbm_part_assign,
    tie_threshold,
)
from repro.core.matching.kernel import bipartite_stream, cold_choice
from repro.partitioning import ldg_partition
from repro.prng import RandomStream
from repro.stats import homophily_joint
from repro.structure import create_generator
from repro.tables import EdgeTable, PropertyTable

from legacy_matching import (
    legacy_bipartite_assignments,
    legacy_ldg_partition,
    legacy_sbm_part_assign,
)

GOLDEN_DIR = Path(__file__).resolve().parent / "golden" / "matching"


def _load_regenerate():
    """Import the matching regenerate script under a unique module
    name (``tests/golden/regenerate.py`` already owns "regenerate" on
    sys.path during full-suite runs)."""
    name = "golden_matching_regenerate"
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.spec_from_file_location(
        name, GOLDEN_DIR / "regenerate.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


REGEN = _load_regenerate()
IMPLS = available_impls()


def use_impl(monkeypatch, impl):
    """Select the placement loop through the one kernel switch."""
    if impl == "numpy":
        monkeypatch.setenv("REPRO_NO_CKERNEL", "1")
    else:
        monkeypatch.delenv("REPRO_NO_CKERNEL", raising=False)


@pytest.fixture(params=IMPLS)
def impl(request, monkeypatch):
    """Each available placement loop in turn."""
    use_impl(monkeypatch, request.param)
    return request.param


def _graph(name, seed, n, **params):
    return create_generator(name, seed=seed, **params).run(n)


def _instance(seed, n=1200, k=8, homophily=0.6, gname="lfr"):
    params = {
        "lfr": {"avg_degree": 12, "max_degree": 30, "mu": 0.2},
        "erdos_renyi_m": {"edges_per_node": 5},
        "forest_fire": {"p": 0.36},
    }[gname]
    table = _graph(gname, seed, n, **params)
    sizes = np.full(k, -(-n // k), dtype=np.int64)
    target = edge_count_target(
        homophily_joint(np.full(k, 1.0 / k), homophily),
        table.num_edges,
    )
    order = RandomStream(seed, "kernel.arrival").permutation(n)
    return table, sizes, target, order


# -- golden fixtures ----------------------------------------------------------


class TestGoldenFixtures:
    """The kernel reproduces the frozen assignments byte-for-byte."""

    @pytest.fixture(scope="class")
    def small_golden(self):
        return np.load(GOLDEN_DIR / "matching_small.npz")

    def test_small_cases(self, small_golden, impl):
        fresh = REGEN.small_cases()
        assert set(fresh) == set(small_golden.files)
        for name in small_golden.files:
            assert np.array_equal(small_golden[name], fresh[name]), name

    def test_large_case(self):
        """n=100k, k=32 — the perf-acceptance case.

        This fixture pins the kernel's relative-tie-band behaviour (the
        legacy absolute band is narrower than one ulp at this score
        scale and resolved true ties by summation noise; see the
        regenerate script's docstring).
        """
        golden = np.load(GOLDEN_DIR / "matching_large.npz")
        fresh = REGEN.large_case()
        assert np.array_equal(
            golden["sbm.er100k.k32"], fresh["sbm.er100k.k32"]
        )

    def test_large_case_numpy(self, monkeypatch):
        """The same case through the numpy placement loop, which a
        run with the compiled kernel loaded never takes."""
        use_impl(monkeypatch, "numpy")
        self.test_large_case()

    def test_structure_fixtures(self):
        """BA + forest-fire rewrites kept their exact edge streams."""
        golden = np.load(GOLDEN_DIR / "structures.npz")
        fresh = REGEN.structure_cases()
        for name in golden.files:
            assert np.array_equal(golden[name], fresh[name]), name


# -- kernel vs legacy ---------------------------------------------------------


class TestKernelMatchesLegacy:
    @pytest.mark.parametrize("gname", ["lfr", "erdos_renyi_m",
                                       "forest_fire"])
    def test_sbm_streams_identical(self, impl, gname):
        table, sizes, target, order = _instance(31, gname=gname)
        expected = legacy_sbm_part_assign(
            table, sizes, target, order=order
        )
        got = sbm_part_assign(table, sizes, target, order=order)
        assert np.array_equal(expected, got)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cold_start": "greedy"},
            {"negative_gain": "multiply"},
            {"capacity_weighting": False},
            {"tie_stream": RandomStream(3, "t")},
        ],
        ids=["greedy-cold", "multiply-gain", "unweighted", "ties"],
    )
    def test_sbm_settings_identical(self, impl, kwargs):
        table, sizes, target, order = _instance(32)
        expected = legacy_sbm_part_assign(
            table, sizes, target, order=order, **kwargs
        )
        got = sbm_part_assign(table, sizes, target, order=order, **kwargs)
        assert np.array_equal(expected, got)

    def test_sbm_natural_order_identical(self, impl):
        table, sizes, target, _ = _instance(33)
        expected = legacy_sbm_part_assign(table, sizes, target)
        got = sbm_part_assign(table, sizes, target)
        assert np.array_equal(expected, got)

    def test_uneven_sizes_with_zero_groups(self, impl):
        table, _, _, order = _instance(34, k=8)
        n = table.num_nodes
        sizes = np.array([0, n // 2, 0, n - n // 2, 0, 0, 0, 0],
                         dtype=np.int64)
        target = edge_count_target(
            homophily_joint(np.full(8, 1 / 8), 0.5), table.num_edges
        )
        expected = legacy_sbm_part_assign(
            table, sizes, target, order=order
        )
        got = sbm_part_assign(table, sizes, target, order=order)
        assert np.array_equal(expected, got)

    def test_ldg_identical(self, impl):
        table, sizes, _, order = _instance(35)
        for tie_stream in (None, RandomStream(8, "ldg")):
            expected = legacy_ldg_partition(
                table, sizes, order=order, tie_stream=tie_stream
            )
            got = ldg_partition(
                table, sizes, order=order, tie_stream=tie_stream
            )
            assert np.array_equal(expected, got)

    @pytest.mark.parametrize(
        "nt, nh, m, tail_sizes, head_sizes",
        [
            (250, 400, 2000, [100, 80, 70], [250, 150]),
            (250, 400, 2000, [100, 0, 150], [250, 150]),
            (250, 400, 2000, [100, 80, 70], [0, 250, 150]),
            (250, 400, 2000, [250], [250, 150]),
            (250, 400, 2000, [100, 80, 70], [400]),
            (500, 120, 1500, [200, 200, 100], [60, 70]),
            (90, 600, 1500, [30, 60], [300, 200, 150]),
            (50, 70, 0, [20, 30], [35, 35]),
        ],
        ids=["three-by-two", "empty-tail-group", "empty-head-group",
             "one-tail-group", "one-head-group", "more-tails",
             "more-heads", "no-edges"],
    )
    @pytest.mark.parametrize("weighting", [True, False],
                             ids=["weighted", "unweighted"])
    def test_bipartite_identical(
        self, nt, nh, m, tail_sizes, head_sizes, weighting,
    ):
        rng = np.random.default_rng(44)
        tails = rng.integers(0, nt, size=m)
        heads = rng.integers(0, nh, size=m)
        table = EdgeTable(
            "b", tails, heads,
            num_tail_nodes=nt, num_head_nodes=nh, directed=True,
        )
        tail_sizes = np.array(tail_sizes, dtype=np.int64)
        head_sizes = np.array(head_sizes, dtype=np.int64)
        if (tail_sizes.size, head_sizes.size) == (3, 2):
            joint = np.array([[0.4, 0.1], [0.1, 0.2], [0.1, 0.1]])
        else:
            joint = rng.random((tail_sizes.size, head_sizes.size))
        target = bipartite_edge_count_target(joint, m)
        order = RandomStream(2, "bip").permutation(nt + nh)
        expected = legacy_bipartite_assignments(
            table, tail_sizes, head_sizes, target,
            order=order, capacity_weighting=weighting,
        )
        got = bipartite_stream(
            table, tail_sizes, head_sizes, target,
            order=order, capacity_weighting=weighting,
        )
        assert np.array_equal(expected[0], got[0])
        assert np.array_equal(expected[1], got[1])

    @pytest.mark.parametrize("side, tail_sizes, head_sizes", [
        ("tail", [1, 1], [1, 1]),
        ("head", [2, 2], [1, 0]),
    ])
    def test_bipartite_exhausted_capacity_names_its_side(
        self, monkeypatch, side, tail_sizes, head_sizes,
    ):
        """Sizes too small for a side, let past the entry check, run
        out mid-stream with the legacy loop's error for that side."""
        import repro.core.matching.kernel as kernel

        monkeypatch.setattr(
            kernel, "_capacities",
            lambda sizes, n, what: np.asarray(sizes, dtype=np.int64),
        )
        table = EdgeTable(
            "b", [0, 1, 2, 3], [0, 1, 1, 0],
            num_tail_nodes=4, num_head_nodes=2, directed=True,
        )
        for stream in (legacy_bipartite_assignments, bipartite_stream):
            with pytest.raises(
                RuntimeError, match=f"^{side} group capacities exhausted"
            ):
                stream(table, tail_sizes, head_sizes, np.ones((2, 2)))


# -- tie tolerance ------------------------------------------------------------


class TestTieTolerance:
    """Regression for the absolute-band bug at large edge counts.

    Scores grow like m²; at |score| > ~4.5e3 the old absolute band
    ``best - 1e-12`` is narrower than the spacing between adjacent
    doubles, so even mathematically tied groups (whose computed scores
    differ by one ulp of summation noise) stopped tying and were
    resolved by that noise instead of the capacity rule.
    """

    def test_absolute_band_is_noop_at_scale(self):
        # The legacy band literally cannot contain a second candidate:
        # subtracting 1e-12 does not change the float at all.
        for magnitude in (2.0 ** 44, 2.0 ** 50, 1.7e16):
            assert magnitude - 1e-12 == magnitude

    def test_relative_band_catches_adjacent_doubles(self):
        # The real divergence observed on the n=100k golden case:
        # scores ~1.9e4 differing by one ulp (mathematically tied,
        # different summation trees).  The relative band ties them;
        # the absolute band cannot.
        best = 18980.987520000006
        runner_up = np.nextafter(best, 0.0)  # one ulp below
        assert runner_up < best - 1e-12          # absolute: no tie
        assert runner_up >= tie_threshold(best)  # relative: ties

    def test_band_matches_legacy_at_small_scores(self):
        for best in (0.0, 1e-3, 0.999, -0.5, 1.0):
            assert tie_threshold(best) == best - 1e-12

    def test_band_scales(self):
        assert tie_threshold(1e9) == 1e9 - 1e-3
        assert tie_threshold(-1e9) == -1e9 - 1e-3

    def test_band_wide_enough_for_summation_noise(self):
        # ~4500 ulps at every magnitude: far above reduction-order
        # noise, far below any mathematically distinct score gap.
        for s in (10.0, 1e5, 1e12):
            band = s - tie_threshold(s)
            assert band > 100 * np.spacing(s)
            assert band < 1e-9 * s


# -- cold-start placement -----------------------------------------------------


def _reference_cold_steps(caps, loads, uniforms, mode):
    """Step-by-step replica of the legacy cold branch."""
    caps = caps.astype(np.float64)
    loads = loads.copy()
    choices = []
    for u in uniforms:
        remaining = np.maximum(caps - loads, 0.0)
        total = remaining.sum()
        if total <= 0:
            raise RuntimeError("group capacities exhausted mid-stream")
        if mode == "proportional":
            cdf = np.cumsum(remaining / total)
            choice = int(np.searchsorted(cdf, u, side="right"))
        else:
            choice = int(np.argmax(remaining))
        choices.append(choice)
        loads[choice] += 1
    return np.asarray(choices, dtype=np.int64), loads


def _cold_steps(caps, uniforms, mode):
    """Place one cold node per uniform through :func:`cold_choice`."""
    caps = np.asarray(caps, dtype=np.float64)
    loads = np.zeros(caps.size, dtype=np.int64)
    choices = []
    for u in uniforms:
        choice = cold_choice(caps, loads, u, mode == "proportional")
        choices.append(choice)
        loads[choice] += 1
    return np.asarray(choices, dtype=np.int64), loads


class _FixedUniforms:
    """A tie stream whose per-step uniforms are given up front."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)

    def uniform(self, steps):
        return self.values[steps]


class TestColdStart:
    @settings(
        max_examples=60, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        caps=st.lists(st.integers(0, 12), min_size=1, max_size=9),
        seed=st.integers(0, 2**32 - 1),
        mode=st.sampled_from(["proportional", "greedy"]),
    )
    def test_cold_choice_matches_legacy_steps(self, caps, seed, mode):
        """Step by step, ``cold_choice`` replays the legacy cold
        branch's draws exactly, for both cold-start modes."""
        caps = np.asarray(caps, dtype=np.int64)
        count = int(caps.sum())
        if count == 0:
            return
        stream = RandomStream(seed, "cold.prop")
        uniforms = stream.uniform(
            np.arange(count, dtype=np.int64)
        ).tolist()
        expected, expected_loads = _reference_cold_steps(
            caps, np.zeros(caps.size, dtype=np.int64), uniforms, mode
        )
        got, loads = _cold_steps(caps, uniforms, mode)
        assert np.array_equal(expected, got)
        assert np.array_equal(expected_loads, loads)

    @pytest.mark.parametrize("mode", ["proportional", "greedy"])
    def test_exhausted_capacities_raise(self, mode):
        caps = np.array([2.0, 1.0])
        with pytest.raises(RuntimeError, match="exhausted"):
            cold_choice(
                caps, np.array([2, 1]), 0.2, mode == "proportional"
            )

    def test_exhausted_matches_reference_step(self):
        caps = np.array([1, 0, 2], dtype=np.int64)
        uniforms = [0.3, 0.8, 0.1, 0.99]
        with pytest.raises(RuntimeError):
            _reference_cold_steps(
                caps, np.zeros(3, dtype=np.int64), uniforms,
                "proportional",
            )
        with pytest.raises(RuntimeError, match="mid-stream"):
            _cold_steps(caps, uniforms, "proportional")
        # The first three steps place, as in the reference.
        _, loads = _cold_steps(caps, uniforms[:3], "proportional")
        assert loads.tolist() == [1, 0, 2]

    def test_one_ulp_cdf_clamp(self, impl):
        """Shares 1/7, 4/7, 1/7, 1/7 sum two ulps below 1.0; a uniform
        between that and 1.0 lands in the last group with capacity,
        not past the end (group 4 has none)."""
        caps = np.array([1, 4, 1, 1, 0], dtype=np.int64)
        cdf = np.cumsum(caps / caps.sum())
        u = float(np.nextafter(cdf[-1], 1.0))
        assert cdf[-1] < u < 1.0
        loads = np.zeros(caps.size, dtype=np.int64)
        assert cold_choice(caps.astype(np.float64), loads, u, True) == 3
        table = EdgeTable("one", [], [], num_tail_nodes=1)
        got = sbm_part_assign(
            table, caps, np.zeros((5, 5)),
            tie_stream=_FixedUniforms([u]),
        )
        assert got.tolist() == [3]

    def test_unknown_mode_rejected(self, impl):
        table = EdgeTable("one", [], [], num_tail_nodes=1)
        with pytest.raises(ValueError, match="cold_start"):
            sbm_part_assign(
                table, [1], np.zeros((1, 1)), cold_start="sideways",
            )

    @pytest.mark.parametrize("mode", ["proportional", "greedy"])
    def test_edgeless_graph_is_all_cold(self, impl, mode):
        """On an edgeless graph every step takes the cold path, and
        must equal the legacy loop's step-by-step placement."""
        n, k = 400, 5
        table = EdgeTable("empty", [], [], num_tail_nodes=n)
        sizes = np.full(k, n // k, dtype=np.int64)
        target = np.zeros((k, k))
        order = RandomStream(3, "cold.order").permutation(n)
        expected = legacy_sbm_part_assign(
            table, sizes, target, order=order, cold_start=mode
        )
        got = sbm_part_assign(
            table, sizes, target, order=order, cold_start=mode,
        )
        assert np.array_equal(expected, got)


# -- input checks -------------------------------------------------------------


def _path4():
    """Path 0-1-2-3."""
    return EdgeTable("p", [0, 1, 2], [1, 2, 3], num_tail_nodes=4)


def _bipartite_path():
    """Tails 0-1, heads 0-1: t0-h0, t1-h0, t1-h1."""
    return EdgeTable(
        "b", [0, 1, 1], [0, 0, 1],
        num_tail_nodes=2, num_head_nodes=2, directed=True,
    )


BAD_ORDERS = [[0, 0, 1, 2], [0, 1, 2, 7], [-1, 0, 1, 2], [0, 1, 2]]


class TestInputChecks:
    """A bad arrival order or a non-finite target is refused with a
    ``ValueError`` that names it, on every implementation, before any
    node is placed."""

    @pytest.mark.parametrize("order", BAD_ORDERS)
    def test_sbm_order_must_be_permutation(self, impl, order):
        with pytest.raises(ValueError, match="permutation of 0..n-1"):
            sbm_part_assign(_path4(), [2, 2], np.ones((2, 2)), order=order)
        with pytest.raises(ValueError, match="permutation of 0..n-1"):
            prepare_match_stream(_path4(), order)

    @pytest.mark.parametrize("order", BAD_ORDERS)
    def test_ldg_order_must_be_permutation(self, impl, order):
        with pytest.raises(ValueError, match="permutation of 0..n-1"):
            ldg_partition(_path4(), [2, 2], order=order)

    @pytest.mark.parametrize("order", BAD_ORDERS)
    def test_bipartite_order_must_be_permutation(self, impl, order):
        with pytest.raises(ValueError, match="permutation of 0..n-1"):
            bipartite_stream(
                _bipartite_path(), [1, 1], [1, 1], np.ones((2, 2)),
                order=order,
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_sbm_target_must_be_finite(self, impl, bad):
        target = np.ones((2, 2))
        target[0, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            sbm_part_assign(_path4(), [2, 2], target)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_bipartite_target_must_be_finite(self, impl, bad):
        target = np.ones((2, 2))
        target[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            bipartite_stream(
                _bipartite_path(), [1, 1], [1, 1], target,
            )
        with pytest.raises(ValueError, match="finite"):
            bipartite_edge_count_target(target, 3)
        with pytest.raises(ValueError, match="finite"):
            bipartite_sbm_part_match(
                PropertyTable("t", np.array([0, 1])),
                PropertyTable("h", np.array([0, 1])),
                target, _bipartite_path(),
            )


# -- kernel plumbing ----------------------------------------------------------


class TestKernelPlumbing:
    def test_available_impls_contains_numpy(self):
        assert "numpy" in available_impls()

    def test_switch_is_read_per_call(self, monkeypatch):
        """``REPRO_NO_CKERNEL`` set in a running process takes effect
        at the next call, and clearing it brings the C loop back."""
        use_impl(monkeypatch, "c")
        loaded = available_impls()
        monkeypatch.setenv("REPRO_NO_CKERNEL", "1")
        assert available_impls() == ["numpy"]
        monkeypatch.delenv("REPRO_NO_CKERNEL")
        assert available_impls() == loaded

    def test_prep_reuse_matches_fresh(self):
        table, sizes, target, order = _instance(52, n=500, k=4)
        prep = prepare_match_stream(table, order)
        a = sbm_part_assign(table, sizes, target, order=order)
        b = sbm_part_assign(table, sizes, target, prep=prep)
        assert np.array_equal(a, b)
        # Passing the matching order alongside the prep is fine...
        c = sbm_part_assign(
            table, sizes, target, order=order, prep=prep
        )
        assert np.array_equal(a, c)
        # ...but a mismatched (order, prep) pair is rejected instead
        # of silently streaming in the prep's order.
        other = np.roll(order, 1)
        with pytest.raises(ValueError, match="different arrival"):
            sbm_part_assign(
                table, sizes, target, order=other, prep=prep
            )
        with pytest.raises(ValueError, match="different arrival"):
            ldg_partition(table, sizes, order=other, prep=prep)

    def test_bipartite_matcher_unchanged_contract(self):
        """Public bipartite API still enforces capacities exactly."""
        rng = np.random.default_rng(3)
        nt, nh, m = 120, 200, 900
        table = EdgeTable(
            "b", rng.integers(0, nt, m), rng.integers(0, nh, m),
            num_tail_nodes=nt, num_head_nodes=nh, directed=True,
        )
        tail_values = np.repeat([0, 1], [60, 60])
        head_values = np.repeat([0, 1], [100, 100])
        result = bipartite_sbm_part_match(
            PropertyTable("t", tail_values),
            PropertyTable("h", head_values),
            np.array([[0.4, 0.1], [0.1, 0.4]]),
            table,
        )
        assert np.array_equal(
            np.bincount(result.tail_assignment), [60, 60]
        )
        assert np.array_equal(
            np.bincount(result.head_assignment), [100, 100]
        )
