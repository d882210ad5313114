"""Tests for SBM-Part: the paper's core contribution."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.matching import (
    edge_count_target,
    sbm_part_assign,
    sbm_part_match,
)
from repro.core.matching.sbm_part import _mapping_from_assignment
from repro.partitioning import mixing_matrix
from repro.prng import RandomStream
from repro.stats import (
    JointDistribution,
    empirical_joint,
    homophily_joint,
)
from repro.structure import StochasticBlockModel
from repro.tables import EdgeTable, PropertyTable


class TestEdgeCountTarget:
    def test_mass_convention(self):
        joint = JointDistribution([[0.5, 0.1], [0.1, 0.3]])
        target = edge_count_target(joint, 100)
        # Diagonal: m * P(i,i); off-diagonal doubled (full pair count).
        assert target[0, 0] == pytest.approx(50.0)
        assert target[0, 1] == pytest.approx(20.0)
        assert target[1, 1] == pytest.approx(30.0)

    def test_consistent_with_mixing_matrix(self):
        """A graph whose mixing matrix *is* the joint's expectation must
        have zero Frobenius error against the target."""
        # Path 0-1-2-3 with labels [0,0,1,1]: W = [[1,1],[1,1]].
        table = EdgeTable("p", [0, 1, 2], [1, 2, 3], num_tail_nodes=4)
        labels = np.array([0, 0, 1, 1])
        observed = empirical_joint(table.tails, table.heads, labels, k=2)
        target = edge_count_target(observed, table.num_edges)
        achieved = mixing_matrix(table, labels, k=2)
        assert np.allclose(target, achieved)

    def test_negative_edges_rejected(self):
        joint = JointDistribution(np.ones((2, 2)))
        with pytest.raises(ValueError):
            edge_count_target(joint, -1)


class TestSbmPartAssign:
    def test_respects_group_sizes(self, small_lfr):
        table = small_lfr.table
        n = table.num_nodes
        sizes = np.array([n // 3, n // 3, n - 2 * (n // 3)])
        joint = homophily_joint(sizes / n, 0.6)
        target = edge_count_target(joint, table.num_edges)
        labels = sbm_part_assign(table, sizes, target)
        assert np.array_equal(np.bincount(labels, minlength=3), sizes)

    def test_all_assigned(self, small_lfr):
        table = small_lfr.table
        n = table.num_nodes
        sizes = np.array([n, 0, 0])
        joint = JointDistribution(np.eye(3) + 0.01)
        labels = sbm_part_assign(
            table, sizes, edge_count_target(joint, table.num_edges)
        )
        assert (labels == 0).all()

    def test_capacity_shortfall_raises(self, triangle_table):
        with pytest.raises(ValueError, match="group sizes sum"):
            sbm_part_assign(
                triangle_table, np.array([1, 1]), np.zeros((2, 2))
            )

    def test_target_shape_validated(self, triangle_table):
        with pytest.raises(ValueError, match="target"):
            sbm_part_assign(
                triangle_table, np.array([2, 1]), np.zeros((3, 3))
            )

    def test_deterministic(self, small_lfr):
        table = small_lfr.table
        n = table.num_nodes
        sizes = np.array([n // 2, n - n // 2])
        joint = homophily_joint(sizes / n, 0.5)
        target = edge_count_target(joint, table.num_edges)
        a = sbm_part_assign(table, sizes, target)
        b = sbm_part_assign(table, sizes, target)
        assert np.array_equal(a, b)

    def test_achieved_matrix_tracks_mixing(self, small_lfr):
        """The incremental W maintained by the stream must equal the
        mixing matrix recomputed from scratch (update correctness)."""
        table = small_lfr.table
        n = table.num_nodes
        sizes = np.array([n // 2, n - n // 2])
        joint = homophily_joint(np.array([0.5, 0.5]), 0.7)
        pt = PropertyTable(
            "v", np.repeat([0, 1], sizes)
        )
        result = sbm_part_match(pt, joint, table)
        recomputed = mixing_matrix(table, result.assignment, k=2)
        assert np.allclose(result.achieved, recomputed)


def _reference_mapping(assignment, codes):
    """The per-node loop ``_mapping_from_assignment`` replaced."""
    codes = np.asarray(codes, dtype=np.int64)
    k = int(codes.max()) + 1 if codes.size else 0
    rows_by_code = [np.flatnonzero(codes == g) for g in range(k)]
    cursors = np.zeros(k, dtype=np.int64)
    mapping = np.empty(assignment.size, dtype=np.int64)
    for v, g in enumerate(assignment):
        bucket = rows_by_code[g]
        cursor = cursors[g]
        if cursor >= bucket.size:
            raise RuntimeError(
                f"group {g} over-assigned: no PT rows left"
            )
        mapping[v] = bucket[cursor]
        cursors[g] = cursor + 1
    return mapping


class TestMappingFromAssignment:
    @pytest.mark.parametrize("seed", range(6))
    def test_equals_reference_loop(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 70))
        codes = rng.integers(0, k, int(rng.integers(1, 3000)))
        # any assignment the rows can host: a shuffled prefix of the
        # rows' own codes
        n = int(rng.integers(0, codes.size + 1))
        assignment = rng.permutation(codes)[:n]
        got = _mapping_from_assignment(assignment, codes)
        assert got.dtype == np.int64
        assert np.array_equal(got, _reference_mapping(assignment, codes))

    def test_over_assignment_message(self):
        codes = np.array([0, 1, 1, 0, 2])
        assignment = np.array([1, 2, 0, 1, 2, 1, 0])
        with pytest.raises(RuntimeError) as reference:
            _reference_mapping(assignment, codes)
        with pytest.raises(RuntimeError) as got:
            _mapping_from_assignment(assignment, codes)
        assert str(got.value) == str(reference.value)
        assert str(got.value) == "group 2 over-assigned: no PT rows left"

    def test_group_without_rows_is_over_assigned(self):
        with pytest.raises(RuntimeError, match="group 3 over-assigned"):
            _mapping_from_assignment(np.array([0, 3]), np.array([0, 1]))

    def test_empty(self):
        got = _mapping_from_assignment(
            np.zeros(0, dtype=np.int64), np.array([0, 1])
        )
        assert got.size == 0


class TestSbmPartMatch:
    def test_mapping_is_injective(self, small_lfr):
        table = small_lfr.table
        n = table.num_nodes
        sizes = np.array([n // 2, n - n // 2])
        pt = PropertyTable("v", np.repeat([0, 1], sizes))
        joint = homophily_joint(np.array([0.5, 0.5]), 0.7)
        result = sbm_part_match(pt, joint, table)
        assert np.unique(result.mapping).size == n

    def test_mapping_respects_values(self, small_lfr):
        """Node assigned group g must map to a PT row holding value g."""
        table = small_lfr.table
        n = table.num_nodes
        sizes = np.array([n // 2, n - n // 2])
        pt = PropertyTable("v", np.repeat([10, 20], sizes))
        joint = homophily_joint(np.array([0.5, 0.5]), 0.7)
        result = sbm_part_match(pt, joint, table)
        mapped_values = pt.values[result.mapping]
        expected_values = np.where(result.assignment == 0, 10, 20)
        assert np.array_equal(mapped_values, expected_values)

    def test_k_mismatch_raises(self, small_lfr):
        pt = PropertyTable(
            "v", np.zeros(small_lfr.table.num_nodes, dtype=np.int64)
        )
        joint = homophily_joint(np.array([0.5, 0.5]), 0.5)
        with pytest.raises(ValueError, match="categories"):
            sbm_part_match(pt, joint, small_lfr.table)

    def test_pt_too_small_raises(self, small_lfr):
        pt = PropertyTable("v", np.array([0, 1]))
        joint = homophily_joint(np.array([0.5, 0.5]), 0.5)
        with pytest.raises(ValueError, match="rows"):
            sbm_part_match(pt, joint, small_lfr.table)

    def test_recovers_planted_sbm_structure(self):
        """On a graph drawn from the target SBM, SBM-Part must realise
        a joint substantially closer to the request than random
        matching.  (Full recovery is blocked by label-symmetry: a
        single-pass greedy cannot decide *which* coarse group hosts
        which planted block — the paper's own §5 open question, which
        the structure zoo, A6 of docs/reproduction.md, measures.)"""
        marginal = np.array([0.5, 0.3, 0.2])
        joint = homophily_joint(marginal, 0.8)
        n = 1500
        sizes = (marginal * n).astype(np.int64)
        sizes[0] += n - sizes.sum()
        delta = joint.sbm_probabilities(sizes, 12_000)
        sbm = StochasticBlockModel(
            seed=2, sizes=sizes, probabilities=delta
        )
        table = sbm.run(n)
        pt = PropertyTable(
            "v", np.repeat(np.arange(3, dtype=np.int64), sizes)
        )
        order = RandomStream(5, "arrival").permutation(n)
        result = sbm_part_match(pt, joint, table, order=order)
        observed = empirical_joint(
            table.tails, table.heads,
            pt.values[result.mapping], k=3,
        )
        from repro.stats import compare_joints

        comparison = compare_joints(joint, observed)
        from repro.core.matching import random_match

        random_observed = empirical_joint(
            table.tails, table.heads,
            pt.values[random_match(pt, table, seed=1)], k=3,
        )
        random_comparison = compare_joints(joint, random_observed)
        assert comparison.ks < 0.45
        assert comparison.ks < random_comparison.ks
        assert np.trace(observed.matrix) > np.trace(
            random_observed.matrix
        )

    def test_beats_random_on_lfr(self, small_lfr):
        """The headline claim of the evaluation."""
        from repro.core.matching import random_match
        from repro.partitioning import ldg_partition
        from repro.stats import TruncatedGeometric, compare_joints

        table = small_lfr.table
        n = table.num_nodes
        k = 8
        sizes = TruncatedGeometric(0.4, k).sizes(n)
        labels = ldg_partition(table, sizes)
        expected = empirical_joint(table.tails, table.heads, labels, k=k)
        pt = PropertyTable(
            "v",
            np.repeat(np.arange(k, dtype=np.int64),
                      np.bincount(labels, minlength=k)),
        )
        order = RandomStream(7, "arrival").permutation(n)
        sbm_result = sbm_part_match(pt, expected, table, order=order)
        sbm_observed = empirical_joint(
            table.tails, table.heads, pt.values[sbm_result.mapping], k=k
        )
        random_mapping = random_match(pt, table, seed=3)
        random_observed = empirical_joint(
            table.tails, table.heads, pt.values[random_mapping], k=k
        )
        sbm_ks = compare_joints(expected, sbm_observed).ks
        random_ks = compare_joints(expected, random_observed).ks
        assert sbm_ks < random_ks

    def test_capacity_weighting_flag(self, small_lfr):
        table = small_lfr.table
        n = table.num_nodes
        sizes = np.array([n // 2, n - n // 2])
        pt = PropertyTable("v", np.repeat([0, 1], sizes))
        joint = homophily_joint(np.array([0.5, 0.5]), 0.6)
        weighted = sbm_part_match(
            pt, joint, table, capacity_weighting=True
        )
        unweighted = sbm_part_match(
            pt, joint, table, capacity_weighting=False
        )
        # Both must satisfy the capacities; assignments may differ.
        for result in (weighted, unweighted):
            assert np.array_equal(
                np.bincount(result.assignment, minlength=2), sizes
            )

    def test_frobenius_error_property(self, small_lfr):
        table = small_lfr.table
        n = table.num_nodes
        sizes = np.array([n // 2, n - n // 2])
        pt = PropertyTable("v", np.repeat([0, 1], sizes))
        joint = homophily_joint(np.array([0.5, 0.5]), 0.6)
        result = sbm_part_match(pt, joint, table)
        manual = float(
            np.linalg.norm(result.achieved - result.target, ord="fro")
        )
        assert result.frobenius_error == pytest.approx(manual)
