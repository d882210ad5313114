"""Tests for EdgeTable."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.structure import _ckernel as structure_ckernel
from repro.tables import EdgeTable, bucket_order, csr_arrays


class TestConstruction:
    def test_basic(self, triangle_table):
        assert len(triangle_table) == 3
        assert triangle_table.num_nodes == 3
        assert triangle_table.num_edges == 3

    def test_infers_node_count(self):
        table = EdgeTable("e", [0, 5], [1, 2])
        assert table.num_tail_nodes == 6

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="lengths differ"):
            EdgeTable("e", [0, 1], [1])

    def test_rejects_negative_ids(self):
        with pytest.raises(ValueError, match="nonnegative"):
            EdgeTable("e", [-1], [0])

    def test_rejects_ids_beyond_declared(self):
        with pytest.raises(ValueError, match="exceed"):
            EdgeTable("e", [0, 7], [1, 2], num_tail_nodes=3)

    def test_bipartite_flag(self):
        table = EdgeTable(
            "e", [0], [0], num_tail_nodes=2, num_head_nodes=5
        )
        assert table.is_bipartite
        with pytest.raises(ValueError, match="bipartite"):
            _ = table.num_nodes

    def test_empty(self):
        table = EdgeTable("e", [], [], num_tail_nodes=0)
        assert len(table) == 0
        assert table.num_nodes == 0

    def test_equality(self, triangle_table):
        same = EdgeTable("tri", [0, 1, 2], [1, 2, 0], num_tail_nodes=3)
        assert triangle_table == same

    def test_rows(self):
        table = EdgeTable("e", [0, 1], [1, 2])
        assert list(table.rows()) == [(0, 0, 1), (1, 1, 2)]


class TestDegrees:
    def test_triangle_degrees(self, triangle_table):
        assert np.array_equal(triangle_table.degrees(), [2, 2, 2])

    def test_path_degrees(self, path_table):
        assert np.array_equal(path_table.degrees(), [1, 2, 2, 1])

    def test_out_in_degrees(self):
        table = EdgeTable(
            "e", [0, 0, 1], [1, 2, 2], num_tail_nodes=3, directed=True
        )
        assert np.array_equal(table.out_degrees(), [2, 1, 0])
        assert np.array_equal(table.in_degrees(), [0, 1, 2])


def _argsort_csr(tails, heads, num_nodes, symmetric=True):
    """The CSR as built before the bucket order: one int64 stable
    argsort over the tail column (both endpoint columns when
    ``symmetric``)."""
    src, dst = tails, heads
    if symmetric:
        src = np.concatenate([tails, heads])
        dst = np.concatenate([heads, tails])
    order = np.argsort(src, kind="stable")
    indptr = np.searchsorted(src[order], np.arange(num_nodes + 1))
    return indptr, dst[order]


@pytest.fixture
def numpy_twin(monkeypatch):
    """:func:`csr_arrays` on its numpy twin, as without a compiler."""
    monkeypatch.setattr(structure_ckernel, "load_structure_ckernel",
                        lambda: None)


@st.composite
def _bucketed_keys(draw):
    """Keys from a few distinct values (so ties are common) below a
    bucket count that crosses the 16-bit digit boundaries."""
    num_buckets = draw(
        st.sampled_from([1, 2, 7, 65_536, 65_537, 2**20 + 3, 2**40])
    )
    pool = draw(st.lists(
        st.integers(0, num_buckets - 1), min_size=1, max_size=6,
    ))
    keys = draw(st.lists(st.sampled_from(pool), max_size=200))
    return np.asarray(keys, dtype=np.int64), num_buckets


class TestBucketOrder:
    @settings(max_examples=200, deadline=None)
    @given(case=_bucketed_keys())
    @example(case=(np.zeros(0, dtype=np.int64), 0))
    @example(case=(np.zeros(0, dtype=np.int64), 1))
    @example(case=(np.zeros(1, dtype=np.int64), 1))
    @example(case=(np.array([65_535, 0, 65_535, 1]), 65_536))
    @example(case=(np.array([65_536, 1, 0, 65_536, 1]), 65_537))
    @example(case=(np.array([2**20 + 2, 65_536, 3, 2**20 + 2]), 2**20 + 3))
    def test_equals_stable_argsort(self, case):
        keys, num_buckets = case
        expected = np.argsort(keys, kind="stable")
        got = bucket_order(keys, num_buckets)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("num_buckets", [65_536, 65_537, 2**20 + 3])
    def test_many_keys(self, num_buckets):
        keys = np.random.default_rng(num_buckets).integers(
            0, num_buckets, 200_000
        )
        assert np.array_equal(
            bucket_order(keys, num_buckets),
            np.argsort(keys, kind="stable"),
        )


class TestAdjacency:
    def test_csr_shape(self, triangle_table):
        indptr, neighbors = triangle_table.adjacency_csr()
        assert indptr.size == triangle_table.num_nodes + 1
        assert indptr[0] == 0
        assert indptr[-1] == 2 * len(triangle_table)
        assert neighbors.size == 2 * len(triangle_table)

    def test_csr_neighbors_correct(self, path_table):
        indptr, neighbors = path_table.adjacency_csr()
        node1 = set(neighbors[indptr[1]:indptr[2]])
        assert node1 == {0, 2}

    def test_csr_edge_ids_map_back(self, path_table):
        """Slot ``i`` of node ``v`` is its ``i``-th incident edge: the
        tail-side edges in id order, then the head-side ones."""
        indptr, neighbors = path_table.adjacency_csr()
        tails, heads = path_table.tails, path_table.heads
        for v in range(path_table.num_nodes):
            edge_ids = np.concatenate(
                [np.flatnonzero(tails == v), np.flatnonzero(heads == v)]
            )
            slots = range(indptr[v], indptr[v + 1])
            assert len(slots) == edge_ids.size
            for slot, eid in zip(slots, edge_ids):
                endpoints = {int(tails[eid]), int(heads[eid])}
                assert v in endpoints
                assert int(neighbors[slot]) in endpoints

    @pytest.mark.parametrize("n", [5, 65_536, 65_537, 2**20 + 3])
    def test_csr_equals_argsort_reference(self, n):
        rng = np.random.default_rng(n)
        m = 100_000
        table = EdgeTable(
            "e", rng.integers(0, n, m), rng.integers(0, n, m),
            num_tail_nodes=n,
        )
        indptr, neighbors = table.adjacency_csr()
        ref_indptr, ref_neighbors = _argsort_csr(
            table.tails, table.heads, n
        )
        assert np.array_equal(indptr, ref_indptr)
        assert np.array_equal(neighbors, ref_neighbors)
        assert indptr.dtype == neighbors.dtype == np.int64

    @pytest.mark.parametrize("symmetric", [False, True])
    @pytest.mark.parametrize("n", [5, 65_537])
    def test_twin_equals_argsort_reference(self, numpy_twin, n,
                                           symmetric):
        rng = np.random.default_rng(n)
        src, dst = rng.integers(0, n, (2, 50_000))
        got = csr_arrays(src, dst, n, symmetric=symmetric)
        expected = _argsort_csr(src, dst, n, symmetric)
        for array, reference in zip(got, expected):
            assert array.dtype == np.int64
            assert np.array_equal(array, reference)

    @pytest.mark.parametrize("path", ["compiled", "twin"])
    @pytest.mark.parametrize("src, dst, symmetric", [
        ([0, 3], [1, 1], False),          # an id >= num_nodes
        ([0, -1], [1, 1], False),         # a negative id
        ([0, 1], [2, 3], True),           # a head side out of range
        ([0, 1], [-2, 1], True),
    ])
    def test_refuses_ids_outside_the_node_range(self, request, monkeypatch,
                                                path, src, dst, symmetric):
        """One ``ValueError`` on both paths, raised before the scatter
        reads an id."""
        if path == "twin":
            request.getfixturevalue("numpy_twin")
        kernel = structure_ckernel.load_structure_ckernel()
        if kernel is not None:
            monkeypatch.setattr(type(kernel), "csr_fill",
                                mock.Mock(side_effect=AssertionError))
        with pytest.raises(ValueError, match=r"\[0, num_nodes\) = \[0, 3\)"):
            csr_arrays(src, dst, 3, symmetric=symmetric)

    def test_one_sided_heads_may_lie_in_another_id_space(self):
        indptr, neighbors = csr_arrays([1, 0, 1], [7, 9, 8], 2)
        assert indptr.tolist() == [0, 1, 3]
        assert neighbors.tolist() == [9, 7, 8]

    def test_refuses_columns_of_two_lengths(self):
        with pytest.raises(ValueError, match="one length"):
            csr_arrays([0, 1], [1], 2)

    def test_csr_empty(self):
        indptr, neighbors = EdgeTable(
            "e", [], [], num_tail_nodes=3
        ).adjacency_csr()
        assert indptr.tolist() == [0, 0, 0, 0]
        assert neighbors.size == 0


class TestTransformations:
    def test_canonicalized_sorted(self):
        table = EdgeTable("e", [3, 1], [0, 2])
        canonical = table.canonicalized()
        assert (canonical.tails <= canonical.heads).all()
        assert canonical.tails[0] <= canonical.tails[1]

    def test_deduplicated_removes_duplicates(self):
        table = EdgeTable("e", [0, 1, 0], [1, 0, 1], num_tail_nodes=2)
        simple = table.deduplicated()
        assert len(simple) == 1

    def test_deduplicated_removes_self_loops(self):
        table = EdgeTable("e", [0, 1], [0, 2], num_tail_nodes=3)
        simple = table.deduplicated()
        assert len(simple) == 1
        assert (simple.tails != simple.heads).all()

    def test_deduplicated_keeps_self_loops_when_asked(self):
        table = EdgeTable("e", [0, 1], [0, 2], num_tail_nodes=3)
        kept = table.deduplicated(drop_self_loops=False)
        assert len(kept) == 2

    def test_deduplicated_directed_keeps_orientations(self):
        table = EdgeTable(
            "e", [0, 1], [1, 0], num_tail_nodes=2, directed=True
        )
        assert len(table.deduplicated()) == 2

    def test_relabeled(self):
        table = EdgeTable("e", [0, 1], [1, 2], num_tail_nodes=3)
        relabeled = table.relabeled(np.array([2, 0, 1]))
        assert np.array_equal(relabeled.tails, [2, 0])
        assert np.array_equal(relabeled.heads, [0, 1])

    def test_relabeled_bipartite(self):
        table = EdgeTable(
            "e", [0], [1], num_tail_nodes=1, num_head_nodes=2,
            directed=True,
        )
        out = table.relabeled(
            np.array([4, 5, 6, 7, 8]), np.array([1, 0])
        )
        assert out.tails[0] == 4
        assert out.heads[0] == 0

    def test_subsample(self):
        table = EdgeTable("e", [0, 1, 2], [1, 2, 0], num_tail_nodes=3)
        sub = table.subsample([2, 0])
        assert len(sub) == 2
        assert int(sub.tails[0]) == 2

    def test_head_rows(self, triangle_table):
        rows = triangle_table.head_rows(2)
        assert rows == [(0, 0, 1), (1, 1, 2)]


class TestIterChunks:
    def test_covers_table_in_order(self):
        table = EdgeTable(
            "e", np.arange(7), np.arange(7)[::-1].copy(),
            num_tail_nodes=7,
        )
        chunks = list(table.iter_chunks(3))
        assert [start for start, _, _ in chunks] == [0, 3, 6]
        assert np.array_equal(
            np.concatenate([t for _, t, _ in chunks]), table.tails
        )
        assert np.array_equal(
            np.concatenate([h for _, _, h in chunks]), table.heads
        )

    def test_chunks_are_views(self):
        table = EdgeTable("e", [0, 1, 2], [1, 2, 0], num_tail_nodes=3)
        _, tails, _ = next(iter(table.iter_chunks(2)))
        assert tails.base is table.tails

    def test_empty_table_yields_nothing(self):
        table = EdgeTable("e", [], [])
        assert list(table.iter_chunks(4)) == []

    def test_rejects_bad_chunk_size(self):
        table = EdgeTable("e", [0], [0], num_tail_nodes=1)
        with pytest.raises(ValueError, match="chunk_size"):
            list(table.iter_chunks(0))
