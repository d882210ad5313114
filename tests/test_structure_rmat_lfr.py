"""Tests for the paper's two evaluation structure generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphstats import largest_component_fraction
from repro.stats import fit_power_law_exponent
from repro.structure import LFR, RMat


class TestRMat:
    def test_power_of_two_required(self):
        with pytest.raises(ValueError, match="power of two"):
            RMat(seed=0).run(1000)

    def test_node_count_limit_is_named(self):
        """Above 2**31 nodes the simplify pass's int64 pair code
        ``lo * n + hi`` would wrap: refused up front, limit named."""
        rmat = RMat(seed=0)
        assert rmat.node_count_problem(1 << 31) is None
        assert rmat.node_count_problem(1 << 32) == (
            f"needs at most 2**31 nodes (scale 31), got {1 << 32}"
        )
        with pytest.raises(ValueError, match=r"at most 2\*\*31 nodes"):
            rmat.run_scale(64)

    def test_run_scale_node_count(self):
        table = RMat(seed=0).run_scale(10)
        assert table.num_tail_nodes == 1024

    def test_edge_factor(self):
        raw = RMat(seed=0, simplify=False, edge_factor=8).run_scale(10)
        assert raw.num_edges == 1024 * 8

    def test_simplified_is_simple(self, small_rmat):
        table = small_rmat
        assert (table.tails != table.heads).all()
        keys = (np.minimum(table.tails, table.heads)
                * table.num_nodes
                + np.maximum(table.tails, table.heads))
        assert np.unique(keys).size == len(table)

    def test_skewed_degrees(self, small_rmat):
        degrees = small_rmat.degrees()
        # R-MAT hubs: max degree far above the mean.
        assert degrees.max() > 8 * degrees.mean()

    def test_heavy_tail_exponent(self, small_rmat):
        gamma = fit_power_law_exponent(small_rmat.degrees(), xmin=4)
        assert 1.2 < gamma < 4.0

    def test_quadrant_probabilities_validated(self):
        with pytest.raises(ValueError, match="quadrant"):
            RMat(seed=0, a=0.9, b=0.2, c=0.2)

    def test_noise_parameter(self):
        smooth = RMat(seed=1, noise=0.1).run_scale(9)
        plain = RMat(seed=1, noise=0.0).run_scale(9)
        assert smooth != plain

    def test_determinism(self):
        assert RMat(seed=5).run_scale(9) == RMat(seed=5).run_scale(9)

    def test_mostly_connected(self, small_rmat):
        assert largest_component_fraction(small_rmat) > 0.5


class TestLFR:
    @pytest.fixture(scope="class")
    def result(self):
        generator = LFR(
            seed=11,
            avg_degree=20,
            max_degree=50,
            min_community=10,
            max_community=50,
            mu=0.1,
        )
        return generator.run_with_labels(4000)

    def test_community_count_plausible(self, result):
        # Sizes in [10, 50] -> between n/50 and n/10 communities.
        assert 4000 / 50 <= result.num_communities <= 4000 / 10 + 1

    def test_labels_cover_all_nodes(self, result):
        assert result.communities.size == 4000
        assert result.communities.min() >= 0

    def test_community_sizes_in_range(self, result):
        sizes = np.bincount(result.communities)
        sizes = sizes[sizes > 0]
        assert sizes.min() >= 5  # merge slack at the tail
        assert sizes.max() <= 60  # merge slack at the head

    def test_mixing_factor_respected(self, result):
        table = result.table
        labels = result.communities
        mixed = (labels[table.tails] != labels[table.heads]).mean()
        assert 0.05 < mixed < 0.2  # target 0.1

    def test_mean_degree_near_target(self, result):
        mean = result.table.degrees().mean()
        assert 15 <= mean <= 22  # target 20, erased-model slack

    def test_max_degree_respected(self, result):
        assert result.table.degrees().max() <= 50

    def test_simple_graph(self, result):
        table = result.table
        assert (table.tails != table.heads).all()
        keys = (np.minimum(table.tails, table.heads)
                * table.num_nodes
                + np.maximum(table.tails, table.heads))
        assert np.unique(keys).size == len(table)

    def test_determinism(self):
        params = dict(
            avg_degree=10, max_degree=25, min_community=10,
            max_community=30, mu=0.2,
        )
        a = LFR(seed=3, **params).run_with_labels(800)
        b = LFR(seed=3, **params).run_with_labels(800)
        assert a.table == b.table
        assert np.array_equal(a.communities, b.communities)

    def test_mu_sweep_monotone(self):
        """Higher mu -> more inter-community edges."""
        mixes = []
        for mu in (0.05, 0.3):
            generator = LFR(
                seed=4, avg_degree=12, max_degree=30,
                min_community=10, max_community=40, mu=mu,
            )
            res = generator.run_with_labels(1500)
            labels = res.communities
            t = res.table
            mixes.append(
                (labels[t.tails] != labels[t.heads]).mean()
            )
        assert mixes[0] < mixes[1]

    def test_rejects_bad_mu(self):
        with pytest.raises(ValueError):
            LFR(seed=0, mu=1.0)

    def test_rejects_bad_community_bounds(self):
        with pytest.raises(ValueError):
            LFR(seed=0, min_community=20, max_community=10)

    def test_tiny_graph_single_community(self):
        result = LFR(
            seed=0, avg_degree=3, max_degree=5,
            min_community=10, max_community=50,
        ).run_with_labels(6)
        assert result.num_communities == 1

    def test_empty_graph(self):
        result = LFR(seed=0).run_with_labels(0)
        assert result.table.num_edges == 0
        assert result.communities.size == 0
