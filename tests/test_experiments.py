"""Tests for the Figure-3/4 protocol harness."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import (
    MATCHERS,
    fixed_k,
    k_values,
    lfr_sizes,
    make_graph,
    profile_name,
    rmat_scales,
    run_protocol,
)
from repro.prng import derive_seed


class TestScaleProfiles:
    def test_default_profile(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert profile_name() == "small"
        assert len(lfr_sizes()) == 3
        assert len(rmat_scales()) == 3

    def test_paper_profile(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "paper")
        assert lfr_sizes() == [10_000, 100_000, 1_000_000]
        assert rmat_scales() == [18, 20, 22]

    def test_unknown_profile(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "galactic")
        with pytest.raises(ValueError, match="REPRO_SCALE"):
            profile_name()

    def test_paper_constants(self):
        assert fixed_k() == 16
        assert k_values() == [4, 16, 64]


class TestMakeGraph:
    def test_lfr(self):
        table = make_graph("lfr", 500, seed=1)
        assert table.num_nodes == 500

    def test_rmat(self):
        table = make_graph("rmat", 9, seed=1)
        assert table.num_tail_nodes == 512

    def test_unknown(self):
        with pytest.raises(ValueError, match="unknown graph kind"):
            make_graph("ws", 10, seed=0)


class TestRunProtocol:
    @pytest.fixture(scope="class")
    def lfr_result(self):
        return run_protocol("lfr", 1000, 8, seed=0)

    def test_label(self, lfr_result):
        assert lfr_result.label == "LFR(1k,8)"

    def test_comparison_well_formed(self, lfr_result):
        comparison = lfr_result.comparison
        assert np.isclose(comparison.expected_cdf[-1], 1.0)
        assert np.isclose(comparison.observed_cdf[-1], 1.0)
        assert len(comparison.pairs) == 8 * 9 // 2

    def test_row_has_no_wall_clock(self, lfr_result):
        """Rows feed the byte-diffed reproduction record, so they carry
        no timing; the matching's wall-clock stays on the result."""
        assert set(lfr_result.row()) == {
            "label", "n", "m", "k", "ks", "l1", "js"
        }
        assert lfr_result.seconds_matching > 0

    def test_prebuilt_graph_equals_kind_size_form(self, lfr_result):
        graph = make_graph("lfr", 1000, derive_seed(0, "graph"))
        prebuilt = run_protocol("lfr", 1000, 8, seed=0, graph=graph)
        assert prebuilt.row() == lfr_result.row()
        for name in ("expected_cdf", "observed_cdf"):
            assert np.array_equal(getattr(prebuilt.comparison, name),
                                  getattr(lfr_result.comparison, name))

    def test_matcher_options_pass_through(self):
        weighted = run_protocol("lfr", 400, 4, seed=2)
        flat = run_protocol("lfr", 400, 4, seed=2,
                            capacity_weighting=False)
        assert weighted.row() != flat.row()
        with pytest.raises(TypeError, match="cold_start"):
            run_protocol("lfr", 400, 4, matcher="ldg", cold_start="greedy")

    def test_quality_reasonable_on_lfr(self, lfr_result):
        # Paper's qualitative claim: LFR quality is good.
        assert lfr_result.comparison.ks < 0.35

    def test_sbm_part_beats_random(self):
        """The core comparative claim, via the ablation interface."""
        sbm = run_protocol("lfr", 800, 8, seed=1, matcher="sbm_part")
        rand = run_protocol("lfr", 800, 8, seed=1, matcher="random")
        assert sbm.comparison.ks < rand.comparison.ks

    def test_all_matchers_run(self):
        for matcher in MATCHERS:
            result = run_protocol(
                "lfr", 400, 4, seed=2, matcher=matcher
            )
            assert result.comparison.ks >= 0.0

    def test_unknown_matcher(self):
        with pytest.raises(ValueError, match="unknown matcher"):
            run_protocol("lfr", 200, 4, matcher="oracle")

    def test_order_kinds(self):
        for order_kind in ("random", "bfs", "degree_desc"):
            result = run_protocol(
                "lfr", 400, 4, seed=3, order_kind=order_kind
            )
            assert result.num_nodes == 400

    def test_determinism(self):
        a = run_protocol("lfr", 400, 4, seed=5)
        b = run_protocol("lfr", 400, 4, seed=5)
        assert np.allclose(
            a.comparison.observed_cdf, b.comparison.observed_cdf
        )

    def test_rmat_protocol(self):
        result = run_protocol("rmat", 9, 8, seed=0)
        assert result.label == "RMAT(9,8)"
        assert result.comparison.ks < 0.7

    def test_size_invariance_claim(self):
        """Figure 3's second finding: quality does not degrade with
        size (within our small-profile range)."""
        small = run_protocol("lfr", 1000, 8, seed=4)
        large = run_protocol("lfr", 4000, 8, seed=4)
        assert large.comparison.ks < small.comparison.ks + 0.1
