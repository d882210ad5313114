"""A served request costs its page.

* **The neighbourhood index** — a spooled served table answers
  ``neighbors_of`` / ``edge_exists`` from its
  :class:`~repro.serve.tables.NeighbourIndex`; the scan of
  :class:`~repro.tables.ranged.EdgeRows` stays the reference, and the
  index must return what it returns, in its order, over random tables
  (self-loops, multi-edges, isolated nodes, ragged last pages) and
  through the plant overlay.  That a lookup reads no edge page is
  counted, not timed.
* **Kernels built once** — served tables share one generator per
  table between handler threads, so concurrent pages equal serial
  ones.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GraphGenerator, RunOptions
from repro.io import TableSpool
from repro.io.spool import IN_MEMORY
from repro.scenarios import compile_scenario
from repro.scenarios.zoo import load_zoo
from repro.serve import VirtualGraph
from repro.serve.tables import DeferredEdges, PageMemo
from repro.tables import EdgeTable

DIRECTIONS = ("out", "in", "both")


def indexed(table, spill, run_rows=1024):
    """``table`` served as a spooled table: the same rows, with its
    neighbourhood index."""
    return DeferredEdges(
        table, (table.num_tail_nodes, table.num_head_nodes),
        lambda: table, PageMemo(), (spill, run_rows),
    )


def assert_index_answers_as_scan(served, scan, chunk_rows, pairs=None):
    """Every node's neighbourhood in each direction, and ``edge_exists``
    over ``pairs`` (every pair of ids, one out of range on each side,
    by default), as ``scan`` answers them."""
    spaces = {"out": scan.num_tail_nodes, "in": scan.num_head_nodes,
              "both": max(scan.num_tail_nodes, scan.num_head_nodes)}
    for direction in DIRECTIONS:
        for node in (-1, spaces[direction], spaces[direction] + 5):
            with pytest.raises(IndexError):
                served.neighbors_of(node, direction, chunk_rows)
        for node in range(spaces[direction]):
            got = served.neighbors_of(node, direction, chunk_rows)
            want = scan.neighbors_of(node, direction, chunk_rows)
            assert got.dtype == want.dtype
            assert got.tolist() == want.tolist(), (node, direction)
    nodes = range(-1, max(spaces.values()) + 1)
    for src, dst in pairs or ((src, dst) for src in nodes for dst in nodes):
        assert served.edge_exists(src, dst, chunk_rows) == (
            scan.edge_exists(src, dst, chunk_rows)), (src, dst)


@st.composite
def edge_tables(draw):
    directed = draw(st.booleans())
    tail_nodes = draw(st.integers(1, 12))
    head_nodes = (draw(st.integers(1, 12)) if directed and draw(
        st.booleans()) else tail_nodes)
    # Few endpoints and many edges: self-loops and multi-edges; the
    # spaces run past the largest drawn id, so some nodes are isolated.
    m = draw(st.integers(0, 60))
    tails = draw(st.lists(st.integers(0, max(tail_nodes - 2, 0)),
                          min_size=m, max_size=m))
    heads = draw(st.lists(st.integers(0, head_nodes - 1),
                          min_size=m, max_size=m))
    return EdgeTable("t", tails, heads, tail_nodes, head_nodes, directed)


class TestNeighbourIndex:
    @given(table=edge_tables(), chunk_rows=st.integers(1, 9))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_index_answers_what_the_scan_answers(self, table, chunk_rows):
        assert_index_answers_as_scan(
            indexed(table, IN_MEMORY), table, chunk_rows)

    def test_many_runs_spilled_to_disk(self, tmp_path):
        """More edges than one sorted run: the merge of spilled runs
        (the serving layer's path) answers as the scan does."""
        rng = np.random.default_rng(3)
        table = EdgeTable("t", rng.integers(0, 40, 5000),
                          rng.integers(0, 40, 5000), 43, 43, False)
        spool = TableSpool(tmp_path, 1024)
        try:
            assert_index_answers_as_scan(
                indexed(table, spool.spiller("match.t")), table, 700)
        finally:
            spool.cleanup()


@pytest.fixture(scope="module")
def planted():
    """A planted recipe served in 64-row pages: the generated block
    ends inside a page, and the appended block follows it."""
    compiled = compile_scenario(load_zoo("fraud_ring_social"),
                                scale={"Person": 300})
    virtual = VirtualGraph.from_scenario(compiled, chunk_rows=64).warm()
    yield virtual
    virtual.close()


def test_planted_overlay_answers_as_the_scan(planted):
    assert planted.classification()["edges"]["knows"]["mode"] == "spooled"
    served = planted.graph.edges("knows")
    base = planted.base_edge_count("knows")
    assert len(served) > base
    scan = served.to_edge_table()
    # Both orientations of the appended edges and of a sample of the
    # generated ones, and random (mostly absent) pairs.
    rng = np.random.default_rng(0)
    picked = np.r_[rng.choice(base, 60, replace=False), base:len(served)]
    tails, heads = scan.tails[picked], scan.heads[picked]
    random = rng.integers(-1, planted.node_count("Person") + 1, (200, 2))
    pairs = [*zip(tails, heads), *zip(heads, tails), *map(tuple, random)]
    assert_index_answers_as_scan(served, scan, 64, pairs)


@pytest.mark.parametrize("scenario,scale", [
    ("social_network", {"Person": 300}),
    ("fraud_ring_social", {"Person": 300}),
])
def test_lookups_read_no_edge_page(monkeypatch, scenario, scale):
    """After ``warm()`` a spooled table's neighbourhoods come from the
    index alone: no ``read_range`` of the table, whatever the degree."""
    virtual = VirtualGraph.from_scenario(
        compile_scenario(load_zoo(scenario), scale=scale), chunk_rows=64
    ).warm()
    try:
        deferred = virtual._base.edge_tables["knows"]
        reads = []
        for cls in {DeferredEdges, type(deferred.resolve())}:
            read = cls.read_range
            monkeypatch.setattr(
                cls, "read_range",
                lambda self, *rows, read=read: reads.append(rows)
                or read(self, *rows))
        for node in range(0, virtual.node_count("Person"), 7):
            for direction in DIRECTIONS:
                virtual.neighbors_of("knows", node, direction)
            virtual.edge_exists("knows", node, node + 1)
        assert reads == []
    finally:
        virtual.close()



def test_the_scan_stays_for_virtual_types_and_batch_runs(tmp_path):
    """Only a spooled served type has an index: a virtual type, and
    every table of a batch run, in memory or out of core, scan."""
    compiled = compile_scenario(load_zoo("social_network"),
                                scale={"Person": 300})
    virtual = VirtualGraph.from_scenario(compiled).warm()
    try:
        modes = {name: entry["mode"] for name, entry
                 in virtual.classification()["edges"].items()}
        assert modes == {"knows": "spooled", "creates": "virtual"}
        assert virtual.graph.edges("creates").edge_matches(0, 0) is None
        assert virtual.graph.edges("knows").edge_matches(0, 0) is not None
    finally:
        virtual.close()
    generator = GraphGenerator(compiled.schema, compiled.scale,
                               seed=compiled.seed)
    for options in (RunOptions(), RunOptions(shard_rows=128,
                                             spool_dir=tmp_path / "s")):
        result = generator.generate(options=options)
        assert all(table.edge_matches(0, side) is None
                   for table in result.edge_tables.values()
                   for side in (0, 1))
        result.cleanup()

def test_concurrent_node_pages_equal_serial_pages():
    """Four handler threads share each table's generators; their
    pages are the serial pages."""
    virtual = VirtualGraph.from_scenario(compile_scenario(
        load_zoo("social_network"), scale={"Person": 2000}
    ))
    try:
        pages = [np.arange(lo, lo + 64, dtype=np.int64)
                 for lo in range(0, 1936, 97)] * 2

        def page(ids):
            return {name: np.asarray(values).tolist() for name, values
                    in virtual.node_records("Person", ids).items()}

        with ThreadPoolExecutor(4) as pool:
            concurrent = list(pool.map(page, pages))
        assert concurrent == [page(ids) for ids in pages]
    finally:
        virtual.close()
