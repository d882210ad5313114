"""Tests for matcher baselines and the bipartite SBM-Part variant."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.matching import (
    bipartite_edge_count_target,
    bipartite_sbm_part_match,
    greedy_label_match,
    ldg_degree_match,
    random_match,
    sbm_part_match,
)
from repro.stats import empirical_joint, homophily_joint
from repro.tables import EdgeTable, PropertyTable


class TestRandomMatch:
    def test_bijective_prefix(self, small_lfr):
        table = small_lfr.table
        pt = PropertyTable(
            "v", np.zeros(table.num_nodes, dtype=np.int64)
        )
        mapping = random_match(pt, table, seed=1)
        assert np.unique(mapping).size == table.num_nodes

    def test_deterministic(self, small_lfr):
        table = small_lfr.table
        pt = PropertyTable("v", np.zeros(table.num_nodes, dtype=np.int64))
        assert np.array_equal(
            random_match(pt, table, seed=5),
            random_match(pt, table, seed=5),
        )

    def test_surplus_rows_allowed(self, triangle_table):
        pt = PropertyTable("v", np.zeros(10, dtype=np.int64))
        mapping = random_match(pt, triangle_table, seed=1)
        assert mapping.size == 3
        assert mapping.max() < 10

    def test_too_small_pt_raises(self, triangle_table):
        pt = PropertyTable("v", np.zeros(2, dtype=np.int64))
        with pytest.raises(ValueError):
            random_match(pt, triangle_table)


class TestLdgDegreeMatch:
    def test_marginal_respected(self, small_lfr):
        table = small_lfr.table
        n = table.num_nodes
        sizes = np.array([n // 2, n - n // 2])
        pt = PropertyTable("v", np.repeat([0, 1], sizes))
        joint = homophily_joint(np.array([0.5, 0.5]), 0.6)
        result = ldg_degree_match(pt, joint, table)
        assert np.array_equal(
            np.bincount(result.assignment, minlength=2), sizes
        )

    def test_overfills_diagonal_versus_target(self, small_lfr):
        """LDG optimises locality, so on a community graph it packs the
        diagonal beyond a weakly-homophilous target — the failure mode
        that motivates the Frobenius objective."""
        from repro.core.matching import sbm_part_match

        table = small_lfr.table
        n = table.num_nodes
        sizes = np.array([n // 2, n - n // 2])
        pt = PropertyTable("v", np.repeat([0, 1], sizes))
        joint = homophily_joint(np.array([0.5, 0.5]), 0.2)  # weak
        ldg = ldg_degree_match(pt, joint, table)
        sbm = sbm_part_match(pt, joint, table)
        target_diag = np.trace(ldg.target)
        assert np.trace(ldg.achieved) > np.trace(sbm.achieved)
        assert abs(np.trace(sbm.achieved) - target_diag) < abs(
            np.trace(ldg.achieved) - target_diag
        )


class TestGreedyLabelMatch:
    def test_fills_in_order(self, path_table):
        pt = PropertyTable("v", np.array([0, 0, 1, 1]))
        joint = homophily_joint(np.array([0.5, 0.5]), 0.5)
        result = greedy_label_match(pt, joint, path_table)
        assert np.array_equal(result.assignment, [0, 0, 1, 1])

    def test_respects_custom_order(self, path_table):
        pt = PropertyTable("v", np.array([0, 0, 1, 1]))
        joint = homophily_joint(np.array([0.5, 0.5]), 0.5)
        result = greedy_label_match(
            pt, joint, path_table, order=np.array([3, 2, 1, 0])
        )
        assert np.array_equal(result.assignment, [1, 1, 0, 0])


MONOPARTITE_MATCHERS = [sbm_part_match, ldg_degree_match, greedy_label_match]


@pytest.mark.parametrize(
    "matcher", MONOPARTITE_MATCHERS, ids=lambda f: f.__name__
)
class TestMatcherInputChecks:
    """Every monopartite matcher refuses what SBM-Part refuses, with
    the message that names the PT."""

    def test_joint_categories_must_be_pt_values(self, matcher, path_table):
        pt = PropertyTable("v", np.array([0, 1, 2, 2]))
        joint = homophily_joint(np.full(4, 0.25), 0.5)
        with pytest.raises(
            ValueError, match="joint has 4 categories but PT 'v' has 3"
        ):
            matcher(pt, joint, path_table)

    def test_pt_must_cover_the_structure(self, matcher, path_table):
        pt = PropertyTable("v", np.array([0, 1, 1]))
        joint = homophily_joint(np.array([0.5, 0.5]), 0.5)
        with pytest.raises(
            ValueError, match="PT 'v' has 3 rows but the structure has 4"
        ):
            matcher(pt, joint, path_table)


class TestBipartiteTarget:
    def test_normalises(self):
        target = bipartite_edge_count_target(
            np.array([[2.0, 2.0], [0.0, 4.0]]), 80
        )
        assert target.sum() == pytest.approx(80.0)
        assert target[1, 1] == pytest.approx(40.0)

    def test_rejects_bad(self):
        with pytest.raises(ValueError):
            bipartite_edge_count_target(np.zeros((2, 2)), 10)
        with pytest.raises(ValueError):
            bipartite_edge_count_target(np.ones(3), 10)


class TestBipartiteSbmPart:
    def _bipartite_instance(self, seed=0):
        """Persons x Messages with a planted topic alignment."""
        rng = np.random.default_rng(seed)
        nt, nh = 200, 400
        tail_values = np.repeat([0, 1], [100, 100])
        head_values = np.repeat([0, 1], [200, 200])
        # Edges mostly connect matching values.
        tails, heads = [], []
        for _ in range(1600):
            value = rng.integers(0, 2)
            if rng.random() < 0.9:
                t = rng.integers(0, 100) + value * 100
                h = rng.integers(0, 200) + value * 200
            else:
                t = rng.integers(0, 200)
                h = rng.integers(0, 400)
            tails.append(t)
            heads.append(h)
        table = EdgeTable(
            "likes", tails, heads,
            num_tail_nodes=nt, num_head_nodes=nh, directed=True,
        )
        return table, tail_values, head_values

    def test_capacities_respected(self):
        table, tail_values, head_values = self._bipartite_instance()
        joint = np.array([[0.45, 0.05], [0.05, 0.45]])
        result = bipartite_sbm_part_match(
            PropertyTable("t", tail_values),
            PropertyTable("h", head_values),
            joint,
            table,
        )
        assert np.array_equal(
            np.bincount(result.tail_assignment), [100, 100]
        )
        assert np.array_equal(
            np.bincount(result.head_assignment), [200, 200]
        )

    def test_mappings_bijective(self):
        table, tail_values, head_values = self._bipartite_instance()
        joint = np.array([[0.45, 0.05], [0.05, 0.45]])
        result = bipartite_sbm_part_match(
            PropertyTable("t", tail_values),
            PropertyTable("h", head_values),
            joint,
            table,
        )
        assert np.unique(result.tail_mapping).size == 200
        assert np.unique(result.head_mapping).size == 400

    def test_diagonal_mass_reproduced(self):
        table, tail_values, head_values = self._bipartite_instance()
        joint = np.array([[0.45, 0.05], [0.05, 0.45]])
        result = bipartite_sbm_part_match(
            PropertyTable("t", tail_values),
            PropertyTable("h", head_values),
            joint,
            table,
        )
        achieved = result.achieved / result.achieved.sum()
        # Requested 90% diagonal; the greedy stream lands well above
        # the random baseline (50%) though short of the request.
        assert np.trace(achieved) > 0.6

    def test_achieved_counts_total(self):
        table, tail_values, head_values = self._bipartite_instance()
        joint = np.ones((2, 2))
        result = bipartite_sbm_part_match(
            PropertyTable("t", tail_values),
            PropertyTable("h", head_values),
            joint,
            table,
        )
        assert result.achieved.sum() == pytest.approx(table.num_edges)

    @pytest.mark.parametrize("seed", range(5))
    def test_achieved_equals_add_at_reference(self, seed, monkeypatch):
        """The bincount mixing matrix is bitwise the ``np.add.at`` one
        for any assignment, including groups that receive no edge."""
        import repro.core.matching.bipartite as bipartite

        rng = np.random.default_rng(seed)
        nt, nh, kt, kh = 60, 90, 4, 7
        tail_values = rng.integers(0, kt, nt)
        head_values = rng.integers(0, kh, nh)
        table = EdgeTable(
            "r", rng.integers(0, nt, 500), rng.integers(0, nh, 500),
            num_tail_nodes=nt, num_head_nodes=nh, directed=True,
        )
        assign = (rng.permutation(tail_values), rng.permutation(head_values))
        monkeypatch.setattr(
            bipartite, "bipartite_stream", lambda *a, **k: assign
        )
        result = bipartite_sbm_part_match(
            PropertyTable("t", tail_values),
            PropertyTable("h", head_values),
            np.ones((tail_values.max() + 1, head_values.max() + 1)),
            table,
        )
        expected = np.zeros_like(result.target)
        np.add.at(
            expected, (assign[0][table.tails], assign[1][table.heads]), 1.0
        )
        assert result.achieved.dtype == expected.dtype
        assert result.achieved.tobytes() == expected.tobytes()

    def test_shape_mismatch_raises(self):
        table, tail_values, head_values = self._bipartite_instance()
        with pytest.raises(ValueError, match="groups"):
            bipartite_sbm_part_match(
                PropertyTable("t", tail_values),
                PropertyTable("h", head_values),
                np.ones((3, 3)),
                table,
            )

    def test_frobenius_error(self):
        table, tail_values, head_values = self._bipartite_instance()
        joint = np.array([[0.45, 0.05], [0.05, 0.45]])
        result = bipartite_sbm_part_match(
            PropertyTable("t", tail_values),
            PropertyTable("h", head_values),
            joint,
            table,
        )
        assert result.frobenius_error >= 0.0
