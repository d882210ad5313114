"""Tests for LDG, hash partitioning, metrics and arrival orders."""

from __future__ import annotations

import numpy as np
import pytest

from repro.partitioning import (
    arrival_order,
    balance,
    capacity_respecting_random_partition,
    cut_fraction,
    edge_cut,
    hash_partition,
    ldg_partition,
    mixing_matrix,
)
from repro.prng import RandomStream
from repro.tables import EdgeTable


class TestLdgPartition:
    def test_respects_capacities(self, small_lfr):
        table = small_lfr.table
        n = table.num_nodes
        capacities = np.array([n // 2, n - n // 2])
        labels = ldg_partition(table, capacities)
        loads = np.bincount(labels, minlength=2)
        assert (loads <= capacities).all()
        assert loads.sum() == n

    def test_all_nodes_assigned(self, small_lfr):
        table = small_lfr.table
        labels = ldg_partition(
            table, np.full(4, table.num_nodes // 4 + 1)
        )
        assert (labels >= 0).all()

    def test_beats_random_cut_on_community_graph(self, small_lfr):
        """LDG's entire purpose: fewer cut edges than random placement."""
        table = small_lfr.table
        n = table.num_nodes
        capacities = np.full(4, n // 4 + 1)
        ldg_labels = ldg_partition(table, capacities)
        random_labels = capacity_respecting_random_partition(
            np.full(4, n // 4 + (1 if n % 4 else 0))
        )[:n]
        assert cut_fraction(table, ldg_labels) < cut_fraction(
            table, random_labels
        )

    def test_insufficient_capacity_raises(self, triangle_table):
        with pytest.raises(ValueError, match="capacities sum"):
            ldg_partition(triangle_table, [1, 1])

    def test_custom_order(self, path_table):
        labels = ldg_partition(
            path_table, [2, 2], order=np.array([3, 2, 1, 0])
        )
        assert labels.size == 4

    def test_wrong_order_length_raises(self, path_table):
        with pytest.raises(ValueError, match="order"):
            ldg_partition(path_table, [4], order=np.array([0, 1]))

    def test_tie_stream_deterministic(self, small_lfr):
        table = small_lfr.table
        capacities = np.full(4, table.num_nodes // 4 + 1)
        a = ldg_partition(
            table, capacities, tie_stream=RandomStream(1, "t")
        )
        b = ldg_partition(
            table, capacities, tie_stream=RandomStream(1, "t")
        )
        assert np.array_equal(a, b)

    def test_neighbors_attract(self):
        """A clique streamed after its first member lands together."""
        # Two 5-cliques connected by one edge.
        edges = []
        for block in (range(5), range(5, 10)):
            block = list(block)
            for i in range(5):
                for j in range(i + 1, 5):
                    edges.append((block[i], block[j]))
        edges.append((0, 5))
        tails, heads = zip(*edges)
        table = EdgeTable("cliques", tails, heads, num_tail_nodes=10)
        labels = ldg_partition(table, [5, 5])
        assert len(set(labels[:5])) == 1
        assert len(set(labels[5:])) == 1
        assert labels[0] != labels[5]


class TestHashPartition:
    def test_range(self):
        labels = hash_partition(1000, 7)
        assert labels.min() >= 0
        assert labels.max() < 7

    def test_roughly_balanced(self):
        labels = hash_partition(70_000, 7)
        loads = np.bincount(labels, minlength=7)
        assert loads.max() / loads.min() < 1.1

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            hash_partition(10, 0)


class TestRandomPartition:
    def test_exact_fill(self):
        labels = capacity_respecting_random_partition([3, 5, 2], seed=1)
        assert np.array_equal(np.bincount(labels), [3, 5, 2])

    def test_deterministic(self):
        a = capacity_respecting_random_partition([4, 4], seed=9)
        b = capacity_respecting_random_partition([4, 4], seed=9)
        assert np.array_equal(a, b)

    def test_shuffled(self):
        labels = capacity_respecting_random_partition([50, 50], seed=1)
        assert (labels[:50] != 0).any()


class TestMetrics:
    def test_edge_cut(self, path_table):
        labels = np.array([0, 0, 1, 1])
        assert edge_cut(path_table, labels) == 1
        assert cut_fraction(path_table, labels) == pytest.approx(1 / 3)

    def test_cut_empty_graph(self):
        table = EdgeTable("e", [], [], num_tail_nodes=3)
        assert cut_fraction(table, np.zeros(3, dtype=int)) == 0.0

    def test_balance_perfect(self):
        assert balance(np.array([0, 0, 1, 1]), k=2) == 1.0

    def test_balance_skewed(self):
        assert balance(np.array([0, 0, 0, 1]), k=2) == 1.5

    def test_mixing_matrix_convention(self, path_table):
        labels = np.array([0, 0, 1, 1])
        w = mixing_matrix(path_table, labels, k=2)
        assert w[0, 0] == 1.0  # edge 0-1
        assert w[1, 1] == 1.0  # edge 2-3
        assert w[0, 1] == w[1, 0] == 1.0  # edge 1-2 mirrored

    def test_mixing_matrix_total_mass(self, small_lfr):
        table = small_lfr.table
        labels = hash_partition(table.num_nodes, 4)
        w = mixing_matrix(table, labels, k=4)
        diag = np.trace(w)
        off = (w.sum() - diag) / 2
        assert diag + off == table.num_edges

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mixing_matrix_equals_add_at_reference(self, seed):
        """The bincount count is bitwise the former ``np.add.at``
        fold over ``(min, max)`` label pairs, mirrored."""
        rng = np.random.default_rng(seed)
        n, m, k = 500, 4000, 7
        table = EdgeTable(
            "e", rng.integers(0, n, m), rng.integers(0, n, m),
            num_tail_nodes=n,
        )
        labels = rng.integers(0, k, n)
        lt, lh = labels[table.tails], labels[table.heads]
        expected = np.zeros((k, k), dtype=np.float64)
        np.add.at(
            expected, (np.minimum(lt, lh), np.maximum(lt, lh)), 1.0
        )
        expected = expected + np.triu(expected, k=1).T
        got = mixing_matrix(table, labels, k=k)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)

    def test_mixing_matrix_rejects_negative_label(self):
        table = EdgeTable("e", [0, 1], [1, 2], num_tail_nodes=3)
        with pytest.raises(ValueError, match=r"label -1 .*k = 2"):
            mixing_matrix(table, np.array([0, -1, 1]), k=2)

    def test_mixing_matrix_rejects_label_beyond_k(self):
        table = EdgeTable("e", [0, 1], [1, 2], num_tail_nodes=3)
        with pytest.raises(ValueError, match=r"label 2 .*k = 2"):
            mixing_matrix(table, np.array([0, 2, 1]), k=2)


class TestArrivalOrder:
    def test_natural(self, path_table):
        order = arrival_order(path_table, "natural")
        assert np.array_equal(order, [0, 1, 2, 3])

    def test_random_is_permutation(self, small_lfr):
        table = small_lfr.table
        order = arrival_order(
            table, "random", stream=RandomStream(4, "o")
        )
        assert np.array_equal(np.sort(order), np.arange(table.num_nodes))

    def test_random_requires_stream(self, path_table):
        with pytest.raises(ValueError, match="stream"):
            arrival_order(path_table, "random")

    def test_bfs_explores_levels(self, path_table):
        order = arrival_order(path_table, "bfs")
        # From node 0: order must be 0,1,2,3 along the path.
        assert np.array_equal(order, [0, 1, 2, 3])

    def test_bfs_includes_unreachable(self):
        table = EdgeTable("e", [0], [1], num_tail_nodes=4)
        order = arrival_order(table, "bfs")
        assert np.array_equal(np.sort(order), np.arange(4))

    def test_degree_orders(self, path_table):
        descending = arrival_order(path_table, "degree_desc")
        ascending = arrival_order(path_table, "degree_asc")
        degrees = path_table.degrees()
        assert degrees[descending[0]] == degrees.max()
        assert degrees[ascending[0]] == degrees.min()

    def test_unknown_kind(self, path_table):
        with pytest.raises(ValueError, match="unknown arrival order"):
            arrival_order(path_table, "sideways")


@pytest.mark.parametrize(
    "module", ["repro.partitioning", "repro.core.matching", "repro"]
)
def test_imports_first_in_a_fresh_interpreter(module):
    """``repro.partitioning`` re-exports the kernel's ``ldg_partition``
    while the matchers import partitioning metrics: either package, or
    ``repro`` itself, must import first without a cycle error."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c",
         f"import {module}; from repro.partitioning import ldg_partition; "
         "from repro.core.matching import sbm_part_match"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
