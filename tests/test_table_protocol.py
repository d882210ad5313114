"""Conformance suite for the row-range table protocol.

Every table implementation — resident, spooled, overlaid, virtual;
pre-matching structures and matched edges included — answers ``name``
+ ``len`` + ``read_range(start, stop)`` and inherits the rest from
:mod:`repro.tables.ranged`.  One parametrised suite runs against all
of them and checks each derived member against the materialised
column(s); a new storage backend passes by adding one entry to
``PROPERTY_CASES`` / ``EDGE_CASES``.  The checks are plain functions
(``assert_property_laws`` / ``assert_edge_laws``), so the
differential oracle in ``test_property_based.py`` holds every table of
every random schema it generates to the same laws.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core import (
    EdgeType,
    GeneratorSpec,
    GraphGenerator,
    NodeType,
    PropertyDef,
    Schema,
)
from repro.core.structures import (
    MatchedEdges,
    adopted,
    metadata,
    spilled_table,
)
from repro.core.tasks import property_inputs
from repro.io.spool import IN_MEMORY, SpillView, TableSpool
from repro.planting.overlay import (
    AppendedPropertyTable,
    OverlayEdgeTable,
    OverlayPropertyTable,
)
from repro.serve.tables import PageMemo, VirtualPropertyTable
from repro.structure import create_generator
from repro.tables import EdgeTable, PropertyTable, StringColumn

ROWS = 23
SHARD_ROWS = 7  # divides neither ROWS nor CHUNK_SIZE
CHUNK_SIZE = 5

VALUES = np.arange(100, 100 + ROWS, dtype=np.int64)
TAILS = (np.arange(ROWS, dtype=np.int64) * 3) % 11
HEADS = (np.arange(ROWS, dtype=np.int64) * 5) % 11


#: Strings the CSV writer must quote or escape, NUL, empty, multi-byte
#: and a repeated entry (a vocabulary with duplicates).
WORDS = ["plain", "b,c", 'q"t', "x\ny", "cr\r", "nul\0", "", "naïve",
         "日本", "plain"]
#: Row ``i`` holds ``WORDS[ROW_WORDS[i]]``.
ROW_WORDS = np.arange(ROWS) * 7 % len(WORDS)
STRINGS = np.array([WORDS[k] for k in ROW_WORDS], dtype=object)


def _string_column(shape):
    """``STRINGS`` as a ragged or a dictionary column."""
    if shape == "ragged":
        return StringColumn.from_strings(STRINGS.tolist())
    return StringColumn.from_strings(WORDS).take(ROW_WORDS)


def _strings(case, tmp_path):
    shape, storage = case
    return _property_base(storage, tmp_path, _string_column(shape)), STRINGS


def _spooled_property(tmp_path, values, shard_rows=SHARD_ROWS):
    spool = TableSpool(tmp_path / "spool-pt", shard_rows)
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
    if storage == "one-shard":
        # read_range hands back a slice of the cached shard itself
        return _spooled_property(tmp_path, values, shard_rows=ROWS)
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


def _virtual(subject, tmp_path):
    """A property of a generated 23-node, 23-edge graph, recomputed
    from the seed over the resident graph's dependency tables: ``T.a``
    has no dependency, ``T.b`` one on its owner's ``a``, ``e.w`` one on
    the tail endpoint's ``a``."""
    date = GeneratorSpec("date_range", {"start": 0, "end": 10**6})
    after = GeneratorSpec("after_dependency", {})
    schema = Schema(
        node_types=[NodeType("T", properties=[
            PropertyDef("a", "date", date),
            PropertyDef("b", "date", after, depends_on=("a",)),
        ])],
        edge_types=[EdgeType(
            "e", "T", "T",
            structure=GeneratorSpec("erdos_renyi_m", {"m": ROWS}),
            properties=[
                PropertyDef("w", "date", after, depends_on=("tail.a",)),
            ],
        )],
    )
    generator = GraphGenerator(schema, {"T": ROWS}, seed=3)
    graph = generator.generate()
    (task,) = (t for t in generator.plan() if t.subject == subject
               and t.kind.endswith("property"))
    table = VirtualPropertyTable(
        subject, *property_inputs(schema, task, graph), task.task_id,
        3, PageMemo(),
    )
    stored = {**graph.node_properties, **graph.edge_properties}
    return table, stored[subject].values


PROPERTY_CASES = {
    "VirtualPropertyTable/no-deps": (_virtual, "T.a"),
    "VirtualPropertyTable/owner-dep": (_virtual, "T.b"),
    "VirtualPropertyTable/tail-dep": (_virtual, "e.w"),
    "PropertyTable": (_resident, "ram"),
    "SpooledPropertyTable": (_resident, "spool"),
    "SpooledPropertyTable/one-shard": (_resident, "one-shard"),
    "OverlayPropertyTable/ram": (_overridden, "ram"),
    "OverlayPropertyTable/spool": (_overridden, "spool"),
    "AppendedPropertyTable/ram": (_appended, "ram"),
    "AppendedPropertyTable/spool": (_appended, "spool"),
    **{
        f"StringColumn/{shape}/{storage}": (_strings, (shape, storage))
        for shape in ("ragged", "dictionary")
        for storage in ("ram", "spool", "one-shard")
    },
}


EDGES = EdgeTable("e", TAILS, HEADS, 11, 11)


def _edge_base(storage, tmp_path, stop=ROWS):
    if storage == "ram":
        return EdgeTable("e", TAILS[:stop], HEADS[:stop], 11, 11)
    return _spooled_edges(tmp_path, TAILS[:stop], HEADS[:stop])


def _overlaid_edges(storage, tmp_path):
    base = _edge_base(storage, tmp_path, stop=16)
    return OverlayEdgeTable(base, TAILS[16:], HEADS[16:])


def _chunk_stream(name, tmp_path):
    """A chunkable generator's stream against its own ``run``."""
    generator = create_generator(name, seed=5, m=ROWS)
    return generator.run_chunked(11, CHUNK_SIZE), generator.run(11)


def _spilled_structure(storage, tmp_path):
    """A materialised structure kept by either spill, as a stream."""
    if storage == "ram":
        return spilled_table(IN_MEMORY, EDGES)
    spool = TableSpool(tmp_path / "spool-sg", SHARD_ROWS)
    return spilled_table(spool.spiller("structure.e"), EDGES)


def _matched_edges(maps, tmp_path):
    """A structure whose relabel through ``maps`` is ``EDGES``: the
    head map is ``None`` (identity), the tail map itself (shared) or a
    second permutation."""
    tail_map = (np.arange(11, dtype=np.int64) * 7 + 3) % 11
    head_map = {
        "identity": None, "shared": tail_map,
        "two-map": (np.arange(11, dtype=np.int64) * 4 + 9) % 11,
    }[maps]
    structure = EdgeTable(
        "e", np.argsort(tail_map)[TAILS],
        HEADS if head_map is None else np.argsort(head_map)[HEADS],
        11, 11,
    )
    return MatchedEdges(structure, tail_map, head_map)


#: name -> (build, argument); ``build`` returns the table, or the
#: table and the resident table it must equal (``EDGES`` otherwise).
EDGE_CASES = {
    "EdgeTable": (_edge_base, "ram"),
    "SpooledEdgeTable": (_edge_base, "spool"),
    "OverlayEdgeTable/ram": (_overlaid_edges, "ram"),
    "OverlayEdgeTable/spool": (_overlaid_edges, "spool"),
    "EdgeChunkStream": (_chunk_stream, "erdos_renyi_m"),
    "EdgeChunkStream/spilled-ram": (_spilled_structure, "ram"),
    "EdgeChunkStream/spilled-spool": (_spilled_structure, "spool"),
    "MatchedEdges/identity": (_matched_edges, "identity"),
    "MatchedEdges/shared": (_matched_edges, "shared"),
    "MatchedEdges/two-map": (_matched_edges, "two-map"),
}


@pytest.fixture(params=sorted(PROPERTY_CASES))
def property_case(request, tmp_path):
    build, storage = PROPERTY_CASES[request.param]
    return build(storage, tmp_path)


@pytest.fixture(params=sorted(EDGE_CASES))
def edge_case(request, tmp_path):
    build, argument = EDGE_CASES[request.param]
    built = build(argument, tmp_path)
    return built if isinstance(built, tuple) else (built, EDGES)


def probe_ranges(length):
    """The ``read_range`` probes of a ``length``-row table: both empty
    ends, the whole table, and short runs that straddle chunk and shard
    edges (clamped, so every table length gets them)."""
    return [(0, 0), (0, length)] + [
        (min(lo, length), min(hi, length))
        for lo, hi in ((3, 4), (6, 8), (5, 21))
    ] + [(length, length)]


def iter_windows(length):
    """``iter_chunks`` windows: the whole table, and an inner one."""
    return [(0, None), (min(4, length), min(19, length))]


def assert_bounds_checked(table):
    length = len(table)
    for start, stop in [(-1, 2), (3, 2), (0, length + 1)]:
        with pytest.raises(
            IndexError,
            match=rf"range \[{start}, {stop}\) out of bounds "
                  rf"\[0, {length}\)",
        ):
            table.read_range(start, stop)
    with pytest.raises(ValueError, match="chunk_size must be >= 1"):
        list(table.iter_chunks(0))
    with pytest.raises(IndexError, match="start .* out of range"):
        list(table.iter_chunks(CHUNK_SIZE, start=length + 1))


def _same(got, expected):
    """``got`` (an array of ``expected``'s dtype, or a list) holds the
    values of ``expected``, NaN matching NaN."""
    if isinstance(got, np.ndarray) and got.dtype != expected.dtype:
        return False
    if expected.dtype.kind == "f":
        return np.array_equal(
            np.asarray(got, dtype=expected.dtype), expected, equal_nan=True
        )
    return list(got) == list(expected)


# -- the laws, one function per member; the oracle in
# test_property_based.py runs them on every table it produces --------------


def property_read_range_law(table, expected):
    assert len(table) == len(expected)
    for lo, hi in probe_ranges(len(expected)):
        assert _same(table.read_range(lo, hi), expected[lo:hi])


def property_iter_chunks_law(table, expected, start, stop):
    last = len(expected) if stop is None else stop
    chunks = list(table.iter_chunks(CHUNK_SIZE, start, stop))
    assert [lo for lo, _ in chunks] == list(range(start, last, CHUNK_SIZE))
    assert _same(
        [value for _, values in chunks for value in values],
        expected[start:last],
    )


def property_values_law(table, expected):
    values = table.values
    assert len(values) == len(expected)
    assert values.dtype == expected.dtype
    assert _same(np.asarray(values), expected)
    for lo, hi in probe_ranges(len(expected)):
        assert _same(values[lo:hi], expected[lo:hi])
    if len(expected):
        assert _same([values[-1]], expected[-1:])
    assert _same(list(values), expected)
    assert _same(table.to_property_table().values, expected)


def property_values_copy_law(table, expected):
    """``np.array(table.values)`` is the caller's own array: writing
    it leaves the table's rows alone (a spooled table's shard cache,
    a resident column)."""
    copied = np.array(table.values)
    if len(copied):
        copied.fill(copied[-1])  # a tuple row too (multi-value sets)
    assert _same(table.read_range(0, len(expected)), expected)


def pickle_law(table, expected):
    clone = pickle.loads(pickle.dumps(table))
    assert clone.name == table.name
    rows = clone.read_range(0, len(table))
    if isinstance(expected, EdgeTable):
        assert np.array_equal(rows[0], expected.tails)
        assert np.array_equal(rows[1], expected.heads)
    else:
        assert _same(rows, expected)


def assert_property_laws(table, expected):
    """Every member of a property table against its resident column."""
    property_read_range_law(table, expected)
    assert_bounds_checked(table)
    for start, stop in iter_windows(len(expected)):
        property_iter_chunks_law(table, expected, start, stop)
    property_values_law(table, expected)
    property_values_copy_law(table, expected)
    pickle_law(table, expected)


def edge_read_range_law(table, expected):
    assert len(table) == table.num_edges == len(expected)
    for lo, hi in probe_ranges(len(expected)):
        tails, heads = table.read_range(lo, hi)
        assert tails.dtype == heads.dtype == np.int64
        assert np.array_equal(tails, expected.tails[lo:hi])
        assert np.array_equal(heads, expected.heads[lo:hi])


def edge_iter_chunks_law(table, expected, start, stop):
    last = len(expected) if stop is None else stop
    chunks = list(table.iter_chunks(CHUNK_SIZE, start, stop))
    assert [lo for lo, _, _ in chunks] == list(
        range(start, last, CHUNK_SIZE)
    )
    for column, got in ((expected.tails, 1), (expected.heads, 2)):
        assert np.array_equal(
            np.concatenate([c[got] for c in chunks] or [column[:0]]),
            column[start:last],
        )


def edge_metadata_law(table, expected):
    assert np.array_equal(table.tails, expected.tails)
    assert np.array_equal(table.heads, expected.heads)
    assert (table.num_tail_nodes, table.num_head_nodes, table.directed) \
        == (expected.num_tail_nodes, expected.num_head_nodes,
            expected.directed)
    assert table.is_bipartite == expected.is_bipartite
    assert table.to_edge_table() == expected


def edge_scans_law(table, expected):
    """``neighbors_of`` / ``edge_exists`` against the resident
    columns, scanned in chunks that divide nothing."""
    tails, heads = expected.tails, expected.heads
    space = max(expected.num_tail_nodes, expected.num_head_nodes)
    for bad in (-5, space, 10**12):
        with pytest.raises(
            IndexError,
            match=rf"node id {bad} out of range \[0, {space}\)",
        ):
            table.neighbors_of(bad, "both", CHUNK_SIZE)
    with pytest.raises(ValueError, match="out/in/both"):
        table.neighbors_of(0, "sideways")
    if not len(expected):
        assert not table.edge_exists(0, 0, CHUNK_SIZE)
        return
    node, head = int(tails[len(tails) // 2]), int(heads[len(heads) // 2])
    assert np.array_equal(
        table.neighbors_of(node, "out", CHUNK_SIZE), heads[tails == node]
    )
    assert np.array_equal(
        table.neighbors_of(head, "in", CHUNK_SIZE), tails[heads == head]
    )
    both = table.neighbors_of(node, "both", CHUNK_SIZE)
    assert sorted(both) == sorted(np.concatenate([
        heads[tails == node],
        tails[(heads == node) & (tails != heads)],
    ]))
    src, dst = int(tails[-1]), int(heads[-1])
    assert table.edge_exists(src, dst, CHUNK_SIZE)
    assert table.edge_exists(dst, src, CHUNK_SIZE) == (
        not table.directed
        or bool(((tails == dst) & (heads == src)).any())
    )
    assert not table.edge_exists(-5, dst, CHUNK_SIZE)


def assert_edge_laws(table, expected):
    """Every member of an edge table against its resident table."""
    edge_read_range_law(table, expected)
    assert_bounds_checked(table)
    for start, stop in iter_windows(len(expected)):
        edge_iter_chunks_law(table, expected, start, stop)
    edge_metadata_law(table, expected)
    edge_scans_law(table, expected)
    pickle_law(table, expected)


class TestPropertyTables:
    def test_read_range(self, property_case):
        property_read_range_law(*property_case)

    def test_bounds(self, property_case):
        assert_bounds_checked(property_case[0])

    @pytest.mark.parametrize("start, stop", iter_windows(ROWS))
    def test_iter_chunks(self, property_case, start, stop):
        property_iter_chunks_law(*property_case, start, stop)

    def test_values_column(self, property_case):
        property_values_law(*property_case)

    def test_copied_values_column_is_private(self, property_case):
        property_values_copy_law(*property_case)

    def test_pickle_round_trip(self, property_case):
        pickle_law(*property_case)


class TestEdgeTables:
    def test_read_range(self, edge_case):
        edge_read_range_law(*edge_case)

    def test_bounds(self, edge_case):
        assert_bounds_checked(edge_case[0])

    @pytest.mark.parametrize("start, stop", iter_windows(ROWS))
    def test_iter_chunks(self, edge_case, start, stop):
        edge_iter_chunks_law(*edge_case, start, stop)

    def test_columns_and_metadata(self, edge_case):
        edge_metadata_law(*edge_case)

    def test_scans(self, edge_case):
        edge_scans_law(*edge_case)

    def test_pickle_round_trip(self, edge_case):
        pickle_law(*edge_case)


def test_copied_spill_view_is_private(tmp_path):
    """``np.array(view)`` copies a spilled array (``np.asarray`` maps
    it): writing the copy leaves the spill alone."""
    spool = TableSpool(tmp_path / "spool-view", SHARD_ROWS)
    view = spool.spiller("structure.e")("tails", TAILS)
    assert isinstance(view, SpillView)
    for copied in (np.array(view), np.array(view, copy=True)):
        assert not np.shares_memory(copied, view.array)
        copied[...] = -1
    assert np.array_equal(np.asarray(view), TAILS)
    assert np.shares_memory(np.asarray(view), view.array)
    spool.cleanup()


def test_adopted_structure_refuses_read_range():
    """A resumed run keeps an adopted structure's metadata only."""
    handle = adopted(metadata(EDGES))
    assert metadata(handle) == metadata(EDGES)
    with pytest.raises(
        RuntimeError, match="structure 'e' was adopted from the spool"
    ):
        handle.read_range(0, 3)


@pytest.fixture(params=[
    name for name in sorted(PROPERTY_CASES) if name.startswith("String")
])
def string_case(request, tmp_path):
    build, storage = PROPERTY_CASES[request.param]
    return build(storage, tmp_path)


class TestStringColumns:
    """What a string column adds to the laws: it stays bytes through
    slicing, gathering and joining shards, and reads as ``str``."""

    def test_gather(self, string_case):
        table, expected = string_case
        order = np.array([22, 0, 7, 6, 13, 13, 1], dtype=np.int64)
        gathered = table.gather(order)
        assert isinstance(gathered, StringColumn)
        assert gathered.tolist() == expected[order].tolist()
        assert len(table.gather(order[:0])) == 0

    def test_rows_stay_a_string_column(self, string_case):
        table, expected = string_case
        rows = table.read_range(3, 21)  # across shard edges
        assert isinstance(rows, StringColumn)
        assert rows.tolist() == expected[3:21].tolist()
        shape = np.asarray(table.read_range(0, ROWS))
        assert shape.dtype == object and shape.tolist() == list(expected)

    def test_dictionary_shards_join_as_a_dictionary(self, tmp_path):
        """A shard keeps its dictionary while it has at least as many
        rows as the vocabulary has entries (else it is stored ragged)."""
        for shard_rows, kept in ((12, True), (SHARD_ROWS, False)):
            table = _spooled_property(
                tmp_path / str(shard_rows), _string_column("dictionary"),
                shard_rows,
            )
            rows = table.read_range(0, ROWS)
            assert (rows.codes is not None) == kept
            assert rows.tolist() == STRINGS.tolist()

    def test_concatenate(self):
        words = StringColumn.from_strings(WORDS)
        other = StringColumn.from_strings(["z", "plain"])
        ragged = _string_column("ragged")
        for parts in (
            [words.take([0, 9]), words.take([3])],   # one vocabulary
            [words.take([0, 9]), other.take([1, 0])],  # two
            [ragged[2:5], words.take([2]), ragged[:0]],  # mixed
        ):
            joined = StringColumn.concatenate(parts)
            assert joined.tolist() == [v for p in parts for v in p]
            shared = all(p.codes is not None for p in parts) and len(
                {id(p.offsets) for p in parts}) == 1
            assert (joined.codes is not None) == shared

    def test_pickle_keeps_only_the_rows_bytes(self):
        ragged = _string_column("ragged")
        part = ragged[20:23]
        clone = pickle.loads(pickle.dumps(part))
        assert clone.tolist() == STRINGS[20:].tolist()
        assert clone.blob.size == sum(
            len(v.encode()) for v in STRINGS[20:])
        picked = ragged.take([4, 4])  # codes over the whole blob
        assert pickle.loads(pickle.dumps(picked)).blob.size == 2 * len(
            STRINGS[4].encode())

    def test_codes_rank_the_vocabulary(self):
        dictionary = _string_column("dictionary")
        assert dictionary.entries == len(WORDS)  # "plain" twice
        for column in (dictionary, dictionary[5:9], STRINGS):
            table = PropertyTable("T.x", column)
            codes, categories = table.codes()
            values = np.asarray(column)
            want, want_codes, want_counts = np.unique(
                values, return_inverse=True, return_counts=True)
            assert categories.tolist() == want.tolist()
            assert codes.dtype == np.int64
            assert codes.tolist() == want_codes.tolist()
            assert table.group_counts().tolist() == want_counts.tolist()
