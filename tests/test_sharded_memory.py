"""Memory-boundedness regression tests for the sharded executor.

Two claims, pinned with tracemalloc (traced allocations include numpy
buffers and Python objects — deterministic, unlike RSS):

* per-shard stages (property kernels, chunked structure emission,
  streaming relabel, sink export) allocate O(shard_rows), independent
  of graph size;
* the full pipeline including the documented global stages (pair-code
  sampling, matching permutations — O(nodes or edges) at ~8–90 bytes
  per row, spilled to disk after creation) stays under a pinned
  ``C · shard_rows`` budget when the graph is 20× the shard size.

If a change regresses memory — a table materialised where it should
stream, a sink chunk decoupled from the shard size — these bounds
break long before CI's 10M-edge smoke does.
"""

from __future__ import annotations

import tracemalloc

from repro.core import GraphGenerator, RunOptions
from repro.core.schema import (
    Cardinality,
    EdgeType,
    GeneratorSpec,
    NodeType,
    PropertyDef,
    Schema,
)
from repro.io import make_sink
from repro.stats import Zipf

SHARD_ROWS = 2048

#: Pinned full-pipeline budget: bytes of peak traced allocation per
#: shard row at the fixed 20× graph/shard ratio.  Measured ≈ 3.7 KB
#: (dominated by the knows-structure pair-code sampling, a documented
#: global stage); the bound leaves ~2× headroom for allocator noise
#: while still sitting far below the ≈ 10 KB/shard-row an in-memory
#: run of the same graph costs.
FULL_PIPELINE_BYTES_PER_SHARD_ROW = 8192

#: Pinned budget for the properties-only pipeline (no global stages):
#: absolute, graph-size-independent.  Measured ≈ 1.1 MB at
#: shard_rows=2048 including csv formatting buffers.
PROPERTY_PIPELINE_BYTES = 4 * 1024 * 1024


def _person_properties():
    return [
        PropertyDef(
            "age", "long",
            GeneratorSpec("uniform_int", {"low": 18, "high": 80}),
        ),
        PropertyDef(
            "handle", "string",
            GeneratorSpec("composite_key", {"prefix": "person"}),
        ),
        PropertyDef(
            "country", "string",
            GeneratorSpec("categorical", {
                "values": ["DE", "FR", "US", "JP", "BR"],
                "weights": [3, 2, 4, 1, 1],
            }),
        ),
        PropertyDef(
            "joined", "long",
            GeneratorSpec("date_range", {
                "start": 10**9, "end": 2 * 10**9,
            }),
        ),
    ]


def properties_only_schema():
    return Schema(node_types=[
        NodeType("Person", properties=_person_properties()),
    ])


def full_schema():
    schema = Schema(node_types=[
        NodeType("Person", properties=_person_properties()),
        NodeType("Message", properties=[
            PropertyDef(
                "length", "long",
                GeneratorSpec("uniform_int", {"low": 1, "high": 500}),
            ),
        ]),
    ])
    schema.add_edge_type(EdgeType(
        "knows", tail_type="Person", head_type="Person",
        structure=GeneratorSpec(
            "erdos_renyi_m", {"edges_per_node": 2}
        ),
    ))
    schema.add_edge_type(EdgeType(
        "creates", tail_type="Person", head_type="Message",
        cardinality=Cardinality.ONE_TO_MANY, directed=True,
        structure=GeneratorSpec("one_to_many", {
            "degree_distribution": Zipf(1.3, 4),
            "degree_offset": 0,
        }),
    ))
    return schema


def measure_sharded_peak(schema, persons, shard_rows, tmp_path, tag):
    out = tmp_path / f"out-{tag}"
    spool = tmp_path / f"spool-{tag}"
    tracemalloc.start()
    try:
        result = GraphGenerator(schema, {"Person": persons}, seed=5).generate(
            make_sink("csv", out, chunk_size=min(shard_rows, 65536)),
            RunOptions(shard_rows=shard_rows, spool_dir=spool),
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    result.cleanup()
    return peak


class TestPropertyPipelineBounded:
    """No global stages → peak is independent of graph size."""

    def test_peak_under_pinned_absolute_budget(self, tmp_path):
        peak = measure_sharded_peak(
            properties_only_schema(), 20 * SHARD_ROWS, SHARD_ROWS,
            tmp_path, "props",
        )
        assert peak < PROPERTY_PIPELINE_BYTES, (
            f"peak {peak} exceeds the pinned "
            f"{PROPERTY_PIPELINE_BYTES}-byte budget — a per-shard "
            "stage is materialising whole tables"
        )

    def test_peak_does_not_scale_with_graph_size(self, tmp_path):
        """Doubling the graph must not move the per-shard peak."""
        schema = properties_only_schema()
        small = measure_sharded_peak(
            schema, 10 * SHARD_ROWS, SHARD_ROWS, tmp_path, "n10",
        )
        large = measure_sharded_peak(
            schema, 20 * SHARD_ROWS, SHARD_ROWS, tmp_path, "n20",
        )
        assert large < small * 1.3 + 256 * 1024, (
            f"peak grew {small} -> {large} with graph size; the "
            "property pipeline is no longer shard-bounded"
        )


class TestFullPipelineBounded:
    def test_peak_under_pinned_shard_budget(self, tmp_path):
        """Graph 20× the shard budget; peak < C · shard_rows."""
        peak = measure_sharded_peak(
            full_schema(), 20 * SHARD_ROWS, SHARD_ROWS,
            tmp_path, "full",
        )
        budget = FULL_PIPELINE_BYTES_PER_SHARD_ROW * SHARD_ROWS
        assert peak < budget, (
            f"peak {peak} exceeds C·shard_rows = {budget}; either a "
            "per-shard stage regressed or a new global stage "
            "materialises without spilling"
        )

    def test_sharding_beats_whole_graph_peak(self, tmp_path):
        """The same graph run with one whole-graph shard must peak
        substantially higher — the sensitivity check that the bound
        above is actually measuring sharding, not test slack."""
        schema = full_schema()
        sharded = measure_sharded_peak(
            schema, 20 * SHARD_ROWS, SHARD_ROWS, tmp_path, "sh",
        )
        whole = measure_sharded_peak(
            schema, 20 * SHARD_ROWS, 10**9, tmp_path, "wh",
        )
        assert sharded < 0.75 * whole, (
            f"sharded peak {sharded} is not clearly below the "
            f"whole-graph peak {whole}"
        )


class TestSerialComparison:
    def test_sharded_peak_below_serial_peak(self, tmp_path):
        """End-to-end: out-of-core generation + export peaks below the
        in-memory engine exporting the same graph."""
        schema = full_schema()
        persons = 20 * SHARD_ROWS
        sharded = measure_sharded_peak(
            schema, persons, SHARD_ROWS, tmp_path, "shard",
        )
        tracemalloc.start()
        try:
            GraphGenerator(
                schema, {"Person": persons}, seed=5
            ).generate(sink=make_sink("csv", tmp_path / "serial"))
            serial = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sharded < 0.75 * serial, (sharded, serial)
