"""Tests for the structural metric suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphstats import (
    approximate_diameter,
    attribute_assortativity,
    average_clustering,
    bfs_distances,
    clustering_distribution_per_degree,
    clustering_per_degree,
    connected_components,
    degree_assortativity,
    degree_ccdf,
    degree_histogram,
    largest_component_fraction,
    local_clustering,
    powerlaw_fit_quality,
    structural_summary,
    triangle_count,
)
from repro.tables import EdgeTable


class TestDegrees:
    def test_histogram(self, path_table):
        hist = degree_histogram(path_table)
        assert np.array_equal(hist, [0, 2, 2])

    def test_ccdf_monotone(self, small_rmat):
        _degrees, ccdf = degree_ccdf(small_rmat)
        assert (np.diff(ccdf) <= 0).all()
        assert ccdf[0] <= 1.0

    def test_ccdf_empty(self):
        table = EdgeTable("e", [], [], num_tail_nodes=0)
        degrees, ccdf = degree_ccdf(table)
        assert degrees.size == 0

    def test_powerlaw_quality_on_rmat(self, small_rmat):
        gamma, r2 = powerlaw_fit_quality(small_rmat)
        assert gamma > 1.0
        assert r2 > 0.7  # log-log CCDF roughly linear


class TestClustering:
    def test_triangle_full_clustering(self, triangle_table):
        coeffs = local_clustering(triangle_table)
        assert np.allclose(coeffs, 1.0)

    def test_path_zero_clustering(self, path_table):
        assert average_clustering(path_table) == 0.0

    def test_matches_networkx(self, small_lfr):
        nx = pytest.importorskip("networkx")
        table = small_lfr.table.subsample(np.arange(2000))
        ours = average_clustering(table)
        theirs = nx.average_clustering(
            nx.Graph(
                list(zip(table.tails.tolist(), table.heads.tolist()))
            )
        )
        # networkx averages only over present nodes; allow slack for
        # isolated nodes counted as 0 by us.
        assert abs(ours * table.num_nodes
                   - theirs * len(set(table.tails) | set(table.heads))) \
            < 0.05 * table.num_nodes

    def test_triangle_count(self, triangle_table):
        assert triangle_count(triangle_table) == 1

    def test_triangle_count_k4(self):
        iu, ju = np.triu_indices(4, k=1)
        table = EdgeTable("k4", iu, ju, num_tail_nodes=4)
        assert triangle_count(table) == 4

    def test_clustering_per_degree_shape(self, small_lfr):
        degrees, ccs = clustering_per_degree(small_lfr.table)
        assert degrees.size == ccs.size
        assert (ccs >= 0).all() and (ccs <= 1).all()

    def test_clustering_distribution_bins(self, triangle_table):
        dist = clustering_distribution_per_degree(triangle_table, bins=4)
        assert 2 in dist
        assert dist[2].sum() == 3  # all three nodes have degree 2
        assert dist[2][-1] == 3  # all in the top bin (cc = 1)


class TestComponents:
    def test_single_component(self, triangle_table):
        labels, count = connected_components(triangle_table)
        assert count == 1
        assert len(set(labels)) == 1

    def test_two_components(self):
        table = EdgeTable("e", [0, 2], [1, 3], num_tail_nodes=4)
        _labels, count = connected_components(table)
        assert count == 2

    def test_isolated_nodes_counted(self):
        table = EdgeTable("e", [0], [1], num_tail_nodes=5)
        _labels, count = connected_components(table)
        assert count == 4

    def test_largest_fraction(self):
        table = EdgeTable("e", [0, 1, 2], [1, 2, 3], num_tail_nodes=6)
        assert largest_component_fraction(table) == pytest.approx(4 / 6)

    def test_bfs_distances(self, path_table):
        dist = bfs_distances(path_table, 0)
        assert np.array_equal(dist, [0, 1, 2, 3])

    def test_bfs_unreachable(self):
        table = EdgeTable("e", [0], [1], num_tail_nodes=3)
        dist = bfs_distances(table, 0)
        assert dist[2] == -1

    def test_diameter_path(self, path_table):
        assert approximate_diameter(path_table) == 3

    def test_diameter_empty(self):
        table = EdgeTable("e", [], [], num_tail_nodes=0)
        assert approximate_diameter(table) == 0

    def test_small_world_diameter(self, small_lfr):
        diameter = approximate_diameter(small_lfr.table, samples=4)
        assert 2 <= diameter <= 20


class TestAssortativity:
    def test_star_disassortative(self):
        table = EdgeTable(
            "star", [0, 0, 0, 0], [1, 2, 3, 4], num_tail_nodes=5
        )
        assert degree_assortativity(table) < 0

    def test_matches_networkx(self, small_lfr):
        nx = pytest.importorskip("networkx")
        table = small_lfr.table
        ours = degree_assortativity(table)
        theirs = nx.degree_assortativity_coefficient(
            nx.Graph(list(zip(table.tails.tolist(),
                              table.heads.tolist())))
        )
        assert abs(ours - theirs) < 0.02

    def test_empty_graph_nan(self):
        table = EdgeTable("e", [], [], num_tail_nodes=2)
        assert np.isnan(degree_assortativity(table))

    def test_attribute_perfect_homophily(self):
        table = EdgeTable("e", [0, 2], [1, 3], num_tail_nodes=4)
        labels = np.array([0, 0, 1, 1])
        assert attribute_assortativity(table, labels) == pytest.approx(
            1.0
        )

    def test_attribute_perfect_heterophily(self):
        table = EdgeTable("e", [0, 1], [2, 3], num_tail_nodes=4)
        labels = np.array([0, 0, 1, 1])
        assert attribute_assortativity(table, labels) < 0

    def test_attribute_matches_networkx(self, small_lfr):
        nx = pytest.importorskip("networkx")
        table = small_lfr.table
        labels = small_lfr.communities % 5
        graph = nx.Graph(
            list(zip(table.tails.tolist(), table.heads.tolist()))
        )
        nx.set_node_attributes(
            graph, {i: int(labels[i]) for i in graph.nodes()}, "g"
        )
        theirs = nx.attribute_assortativity_coefficient(graph, "g")
        ours = attribute_assortativity(table, labels)
        assert abs(ours - theirs) < 0.02


class TestSummary:
    def test_keys(self, small_lfr):
        summary = structural_summary(
            small_lfr.table, clustering=False, diameter=False
        )
        assert summary["num_nodes"] == small_lfr.table.num_nodes
        assert summary["num_edges"] == small_lfr.table.num_edges
        assert "degree_assortativity" in summary
        assert "powerlaw_gamma" in summary
        assert "average_clustering" not in summary

    def test_full_summary(self, triangle_table):
        summary = structural_summary(triangle_table)
        assert summary["average_clustering"] == 1.0
        assert summary["approximate_diameter"] == 1
        assert summary["num_components"] == 1
