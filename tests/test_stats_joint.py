"""Tests for joint distributions P(X, Y)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.stats import JointDistribution, empirical_joint, homophily_joint
from repro.tables import EdgeTable


class TestJointDistribution:
    def test_symmetrised_and_normalised(self):
        joint = JointDistribution([[1.0, 2.0], [0.0, 1.0]])
        assert np.allclose(joint.matrix, joint.matrix.T)
        assert np.isclose(joint.matrix.sum(), 1.0)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            JointDistribution(np.ones((2, 3)))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            JointDistribution([[1.0, -0.5], [-0.5, 1.0]])

    def test_rejects_zero_mass(self):
        with pytest.raises(ValueError):
            JointDistribution(np.zeros((3, 3)))

    def test_marginal_sums_to_one(self):
        joint = JointDistribution(np.ones((4, 4)))
        assert np.isclose(joint.marginal().sum(), 1.0)

    def test_pair_probability_symmetry(self):
        joint = JointDistribution([[0.4, 0.1], [0.1, 0.4]])
        assert joint.pair_probability(0, 1) == joint.pair_probability(1, 0)
        assert np.isclose(
            joint.pair_probability(0, 1), 2 * joint.matrix[0, 1]
        )

    def test_pair_pmf_sums_to_one(self):
        joint = JointDistribution(np.random.default_rng(0).random((5, 5)))
        pairs, pmf = joint.pair_pmf()
        assert pairs.shape == (15, 2)
        assert np.isclose(pmf.sum(), 1.0)
        assert (pairs[:, 0] <= pairs[:, 1]).all()

    def test_condition_on(self):
        joint = JointDistribution([[0.4, 0.1], [0.1, 0.4]])
        conditional = joint.condition_on(0)
        assert np.isclose(conditional.sum(), 1.0)
        assert conditional[0] > conditional[1]

    def test_edge_count_target_scaling(self):
        joint = JointDistribution(np.ones((3, 3)))
        target = joint.edge_count_target(90)
        assert np.isclose(target.sum(), 90.0)

    def test_sbm_probabilities_shape_and_range(self):
        joint = JointDistribution([[0.6, 0.2], [0.2, 0.0]])
        delta = joint.sbm_probabilities([10, 10], 40)
        assert delta.shape == (2, 2)
        assert (delta >= 0).all() and (delta <= 1).all()
        # Diagonal-heavy joint -> intra probability dominates.
        assert delta[0, 0] > delta[0, 1]

    def test_sbm_probabilities_validates_sizes(self):
        joint = JointDistribution(np.ones((2, 2)))
        with pytest.raises(ValueError):
            joint.sbm_probabilities([10, 10, 10], 40)


class TestEmpiricalJoint:
    def test_counts_single_edge(self):
        joint = empirical_joint([0], [1], [0, 1], k=2)
        # One 0-1 edge: symmetric mass split across (0,1) and (1,0).
        assert np.isclose(joint.matrix[0, 1] + joint.matrix[1, 0], 1.0)
        assert joint.matrix[0, 0] == 0.0

    def test_intra_edge_on_diagonal(self):
        joint = empirical_joint([0], [1], [2, 2, 0], k=3)
        assert np.isclose(joint.matrix[2, 2], 1.0)

    def test_infers_k(self):
        joint = empirical_joint([0, 1], [1, 2], [0, 1, 4])
        assert joint.k == 5

    def test_mixed_graph(self):
        # Two intra-0 edges, one 0-1 edge.
        tails = [0, 1, 0]
        heads = [1, 2, 3]
        labels = [0, 0, 0, 1]
        joint = empirical_joint(tails, heads, labels, k=2)
        assert np.isclose(joint.matrix[0, 0], 2 / 3)
        assert np.isclose(2 * joint.matrix[0, 1], 1 / 3)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            empirical_joint([0, 1], [1], [0, 0], k=1)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_add_at_reference(self, seed):
        """The bincount count is bitwise the former ``np.add.at``
        fold (integer counts in float64 are exact)."""
        rng = np.random.default_rng(seed)
        n, m, k = 500, 4000, 7
        tails = rng.integers(0, n, m)
        heads = rng.integers(0, n, m)
        labels = rng.integers(0, k, n)
        counts = np.zeros((k, k), dtype=np.float64)
        np.add.at(counts, (labels[tails], labels[heads]), 1.0)
        np.add.at(counts, (labels[heads], labels[tails]), 1.0)
        expected = JointDistribution(counts).matrix
        got = empirical_joint(tails, heads, labels, k=k).matrix
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)

    def test_negative_label_rejected(self):
        with pytest.raises(ValueError, match=r"label -1 .*k = 2"):
            empirical_joint([0, 1], [1, 2], [0, -1, 1], k=2)

    def test_label_beyond_k_rejected(self):
        with pytest.raises(ValueError, match=r"label 5 .*k = 3"):
            empirical_joint([0, 1], [1, 2], [0, 5, 1], k=3)


class TestHomophilyJoint:
    def test_affinity_zero_is_independence(self):
        marginal = np.array([0.5, 0.3, 0.2])
        joint = homophily_joint(marginal, 0.0)
        assert np.allclose(joint.matrix, np.outer(marginal, marginal))

    def test_affinity_one_is_diagonal(self):
        marginal = np.array([0.5, 0.5])
        joint = homophily_joint(marginal, 1.0)
        assert np.allclose(joint.matrix, np.diag(marginal))

    def test_interpolation_monotone_in_diagonal(self):
        marginal = np.array([0.6, 0.4])
        diag_low = np.trace(homophily_joint(marginal, 0.2).matrix)
        diag_high = np.trace(homophily_joint(marginal, 0.8).matrix)
        assert diag_high > diag_low

    def test_marginal_preserved(self):
        marginal = np.array([0.7, 0.2, 0.1])
        joint = homophily_joint(marginal, 0.5)
        assert np.allclose(joint.marginal(), marginal)

    def test_rejects_bad_affinity(self):
        with pytest.raises(ValueError):
            homophily_joint([0.5, 0.5], 1.5)

    def test_rejects_bad_marginal(self):
        with pytest.raises(ValueError):
            homophily_joint([], 0.5)
        with pytest.raises(ValueError):
            homophily_joint([-0.5, 1.5], 0.5)


class TestRoundTrip:
    def test_sbm_generated_graph_recovers_joint(self, stream):
        """Sampling an SBM from a joint and measuring it empirically
        should approximately recover the joint (model consistency)."""
        from repro.structure import StochasticBlockModel

        joint = homophily_joint([0.5, 0.3, 0.2], 0.7)
        sizes = np.array([500, 300, 200])
        delta = joint.sbm_probabilities(sizes, 8000)
        sbm = StochasticBlockModel(
            seed=4, sizes=sizes, probabilities=delta
        )
        table = sbm.run(1000)
        labels = sbm.group_labels(1000)
        observed = empirical_joint(table.tails, table.heads, labels, k=3)
        assert np.abs(observed.matrix - joint.matrix).max() < 0.05
