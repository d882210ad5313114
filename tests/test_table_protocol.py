"""Conformance suite for the row-range table protocol.

Every table implementation — resident, spooled, overlaid — answers
``name`` + ``len`` + ``read_range(start, stop)`` and inherits the rest
from :mod:`repro.tables.ranged`.  One parametrised suite runs against
all seven classes and checks each derived member against the
materialised column(s); a new storage backend passes by adding one
entry to ``PROPERTY_CASES`` / ``EDGE_CASES``.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.io.spool import TableSpool
from repro.planting.overlay import (
    AppendedPropertyTable,
    OverlayEdgeTable,
    OverlayPropertyTable,
)
from repro.tables import EdgeTable, PropertyTable

ROWS = 23
SHARD_ROWS = 7  # divides neither ROWS nor CHUNK_SIZE
CHUNK_SIZE = 5
RANGES = [(0, 0), (0, ROWS), (3, 4), (6, 8), (5, 21), (ROWS, ROWS)]
BAD_RANGES = [(-1, 2), (3, 2), (0, ROWS + 1)]

VALUES = np.arange(100, 100 + ROWS, dtype=np.int64)
TAILS = (np.arange(ROWS, dtype=np.int64) * 3) % 11
HEADS = (np.arange(ROWS, dtype=np.int64) * 5) % 11


def _spooled_property(tmp_path, values):
    spool = TableSpool(tmp_path / "spool-pt", SHARD_ROWS)
    for index, (lo, hi) in enumerate(spool.shard_bounds(len(values))):
        spool.write_property_shard("T.x", index, values[lo:hi])
    return spool.finish_property("T.x")


def _spooled_edges(tmp_path, tails, heads):
    spool = TableSpool(tmp_path / "spool-et", SHARD_ROWS)
    for index, (lo, hi) in enumerate(spool.shard_bounds(len(tails))):
        spool.write_edge_shard("e", index, tails[lo:hi], heads[lo:hi])
    return spool.finish_edge("e", 11, 11, False)


def _property_base(storage, tmp_path, values):
    if storage == "ram":
        return PropertyTable("T.x", values)
    return _spooled_property(tmp_path, values)


def _resident(storage, tmp_path):
    return _property_base(storage, tmp_path, VALUES), VALUES


def _overridden(storage, tmp_path):
    ids = np.array([0, 6, 7, 22], dtype=np.int64)
    forced = np.array([-1, -2, -3, -4], dtype=np.int64)
    expected = VALUES.copy()
    expected[ids] = forced
    base = _property_base(storage, tmp_path, VALUES)
    return OverlayPropertyTable(base, ids, forced), expected


def _appended(storage, tmp_path):
    base = _property_base(storage, tmp_path, VALUES[:18])
    return AppendedPropertyTable(base, VALUES[18:]), VALUES


PROPERTY_CASES = {
    "PropertyTable": (_resident, "ram"),
    "SpooledPropertyTable": (_resident, "spool"),
    "OverlayPropertyTable/ram": (_overridden, "ram"),
    "OverlayPropertyTable/spool": (_overridden, "spool"),
    "AppendedPropertyTable/ram": (_appended, "ram"),
    "AppendedPropertyTable/spool": (_appended, "spool"),
}


def _edge_base(storage, tmp_path, stop=ROWS):
    if storage == "ram":
        return EdgeTable("e", TAILS[:stop], HEADS[:stop], 11, 11)
    return _spooled_edges(tmp_path, TAILS[:stop], HEADS[:stop])


def _overlaid_edges(storage, tmp_path):
    base = _edge_base(storage, tmp_path, stop=16)
    return OverlayEdgeTable(base, TAILS[16:], HEADS[16:])


EDGE_CASES = {
    "EdgeTable": (_edge_base, "ram"),
    "SpooledEdgeTable": (_edge_base, "spool"),
    "OverlayEdgeTable/ram": (_overlaid_edges, "ram"),
    "OverlayEdgeTable/spool": (_overlaid_edges, "spool"),
}


@pytest.fixture(params=sorted(PROPERTY_CASES))
def property_case(request, tmp_path):
    build, storage = PROPERTY_CASES[request.param]
    return build(storage, tmp_path)


@pytest.fixture(params=sorted(EDGE_CASES))
def edge_table(request, tmp_path):
    build, storage = EDGE_CASES[request.param]
    return build(storage, tmp_path)


def _assert_bounds_checked(table):
    for start, stop in BAD_RANGES:
        with pytest.raises(
            IndexError,
            match=rf"range \[{start}, {stop}\) out of bounds "
                  rf"\[0, {ROWS}\)",
        ):
            table.read_range(start, stop)
    with pytest.raises(ValueError, match="chunk_size must be >= 1"):
        list(table.iter_chunks(0))
    with pytest.raises(IndexError, match="start .* out of range"):
        list(table.iter_chunks(CHUNK_SIZE, start=ROWS + 1))


class TestPropertyTables:
    def test_read_range(self, property_case):
        table, expected = property_case
        assert len(table) == ROWS
        for lo, hi in RANGES:
            assert np.array_equal(
                table.read_range(lo, hi), expected[lo:hi]
            )

    def test_bounds(self, property_case):
        _assert_bounds_checked(property_case[0])

    @pytest.mark.parametrize("start, stop", [(0, None), (4, 19)])
    def test_iter_chunks(self, property_case, start, stop):
        table, expected = property_case
        chunks = list(table.iter_chunks(CHUNK_SIZE, start, stop))
        last = ROWS if stop is None else stop
        assert [lo for lo, _ in chunks] == list(
            range(start, last, CHUNK_SIZE)
        )
        assert np.array_equal(
            np.concatenate([values for _, values in chunks]),
            expected[start:last],
        )

    def test_values_column(self, property_case):
        table, expected = property_case
        values = table.values
        assert len(values) == ROWS
        assert values.dtype == expected.dtype
        assert np.array_equal(np.asarray(values), expected)
        for lo, hi in RANGES:
            assert np.array_equal(values[lo:hi], expected[lo:hi])
        assert values[-1] == expected[-1]
        assert list(values) == list(expected)
        assert table.to_property_table() == PropertyTable(
            table.name, expected
        )

    def test_pickle_round_trip(self, property_case):
        table, expected = property_case
        clone = pickle.loads(pickle.dumps(table))
        assert clone.name == table.name
        assert np.array_equal(clone.read_range(0, ROWS), expected)


class TestEdgeTables:
    def test_read_range(self, edge_table):
        assert len(edge_table) == edge_table.num_edges == ROWS
        for lo, hi in RANGES:
            tails, heads = edge_table.read_range(lo, hi)
            assert np.array_equal(tails, TAILS[lo:hi])
            assert np.array_equal(heads, HEADS[lo:hi])

    def test_bounds(self, edge_table):
        _assert_bounds_checked(edge_table)

    @pytest.mark.parametrize("start, stop", [(0, None), (4, 19)])
    def test_iter_chunks(self, edge_table, start, stop):
        chunks = list(edge_table.iter_chunks(CHUNK_SIZE, start, stop))
        last = ROWS if stop is None else stop
        assert [lo for lo, _, _ in chunks] == list(
            range(start, last, CHUNK_SIZE)
        )
        assert np.array_equal(
            np.concatenate([t for _, t, _ in chunks]), TAILS[start:last]
        )
        assert np.array_equal(
            np.concatenate([h for _, _, h in chunks]), HEADS[start:last]
        )

    def test_columns_and_metadata(self, edge_table):
        assert np.array_equal(edge_table.tails, TAILS)
        assert np.array_equal(edge_table.heads, HEADS)
        assert not edge_table.is_bipartite
        assert edge_table.num_nodes == 11
        assert edge_table.to_edge_table() == EdgeTable(
            "e", TAILS, HEADS, 11, 11
        )

    def test_pickle_round_trip(self, edge_table):
        clone = pickle.loads(pickle.dumps(edge_table))
        tails, heads = clone.read_range(0, ROWS)
        assert np.array_equal(tails, TAILS)
        assert np.array_equal(heads, HEADS)
