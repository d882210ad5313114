"""Out-of-core scale smoke: sharded 10M-edge runs under a memory budget.

The acceptance criterion for the sharded executor is that a graph far
larger than the shard budget streams end-to-end — structure chunk,
match, properties, sink — with peak traced allocation bounded by the
budget, not the graph.  Two rows:

* ``sharded_one_to_many_10m`` — the gated row.  A ~10M-edge
  one-to-many graph generated with ``memory_budget="256MB"`` must keep
  its tracemalloc peak under that budget.  Every stage of this
  pipeline streams (offsets spilled to disk, heads derived per chunk),
  so the bound is the real thing, not slack.
* ``sharded_erdos_renyi_2m`` — context row for the G(n, m) sampling
  stage, which now runs through spilled sorted runs
  (``repro.io.spool.SortedRuns``): candidate codes are deduplicated
  and thinned out of core, so the pinned per-edge constant covers
  only the block-sized working set, not an O(m) transient.  The row
  gates that constant so the stage cannot silently regress toward
  full materialisation.
* ``sharded_one_to_many_10m_p4`` — the process-backend row: the same
  10M-edge pipeline on ``backend="process"`` with 4 workers, asserted
  byte-identical to the serial run; on runners with >= 4 CPUs it must
  also clear 2x the single-worker throughput.

Refresh the committed baseline with::

    pytest benchmarks/bench_scale.py -q -s --json-out BENCH_scale.json

CI's scale-smoke job regenerates the file and fails on regression via
two ``check_perf_regression.py`` passes: ``--gate-field
tracemalloc_peak_mb --gate-direction lower-is-better`` for memory and
``--gate-field rows_per_sec`` (higher-is-better) for throughput.

Scale: "small" is the CI size (~10M edges); ``REPRO_SCALE=medium`` /
``paper`` raise to ~20M / ~50M.  A 1B-edge run uses the same recipe
with a larger scale — see ``docs/scaling.md``.
"""

from __future__ import annotations

import hashlib
import os
import time
import tracemalloc
from pathlib import Path

from repro.core import ShardedExecutor
from repro.core.schema import (
    Cardinality,
    EdgeType,
    GeneratorSpec,
    NodeType,
    Schema,
)
from repro.core import parse_memory_budget
from repro.experiments.scale import profile_name
from repro.io import make_sink
from repro.stats import Zipf
from conftest import print_table

# Zipf(0.6, 10) + offset 1 gives ~4.27 edges per tail node.
_PERSONS = {
    "small": 2_400_000,
    "medium": 4_800_000,
    "paper": 12_000_000,
}
_BUDGET = "256MB"

_ERM_NODES = 400_000
_ERM_EDGES_PER_NODE = 5
#: Pinned constant for the G(n, m) sampling stage: bytes of peak
#: traced allocation per sampled edge (measured ≈ 16 with the spilled
#: sort-merge sampler — block-sized draw/sort/merge buffers only).
#: The pre-spill whole-table dedup measured ≈ 70; full
#: materialisation costs several hundred.
_ERM_BYTES_PER_EDGE_LIMIT = 32


def _one_to_many_schema():
    schema = Schema(node_types=[
        NodeType("Person"),
        NodeType("Message"),
    ])
    schema.add_edge_type(EdgeType(
        "creates", tail_type="Person", head_type="Message",
        cardinality=Cardinality.ONE_TO_MANY, directed=True,
        structure=GeneratorSpec("one_to_many", {
            "degree_distribution": Zipf(0.6, 10),
            "degree_offset": 1,
        }),
    ))
    return schema


def _erdos_renyi_schema():
    schema = Schema(node_types=[NodeType("Person")])
    schema.add_edge_type(EdgeType(
        "knows", tail_type="Person", head_type="Person",
        structure=GeneratorSpec(
            "erdos_renyi_m",
            {"edges_per_node": _ERM_EDGES_PER_NODE},
        ),
    ))
    return schema


def _tree_digests(root):
    """sha256 per file, keyed by relative path (streamed, not held)."""
    root = Path(root)
    return {
        str(p.relative_to(root)):
            hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def _run_sharded(schema, scale, budget, tmp_path, tag,
                 workers=1, backend="thread"):
    executor = ShardedExecutor(
        schema, scale, seed=7,
        memory_budget=budget, spool_dir=tmp_path / f"spool-{tag}",
        workers=workers, backend=backend,
    )
    sink = make_sink(
        "csv", tmp_path / f"out-{tag}",
        chunk_size=executor.shard_rows,
    )
    tracemalloc.start()
    start = time.perf_counter()
    result = executor.run(sink=sink)
    elapsed = time.perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    edges = sum(len(t) for t in result.edge_tables.values())
    result.cleanup()
    return {
        "edges": edges,
        "elapsed_s": elapsed,
        "rows_per_sec": edges / elapsed,
        "tracemalloc_peak_mb": peak / 2**20,
        "peak_bytes": peak,
        "shard_rows": executor.shard_rows,
    }


def test_one_to_many_budget_honoured(tmp_path, bench_recorder):
    """~10M edges, every stage streamed: peak stays under the budget."""
    persons = _PERSONS[profile_name()]
    stats = _run_sharded(
        _one_to_many_schema(), {"Person": persons}, _BUDGET,
        tmp_path, "o2m",
    )
    budget_bytes = parse_memory_budget(_BUDGET)
    print_table(
        f"scale smoke: one_to_many, budget {_BUDGET}",
        [{
            "persons": persons,
            "edges": stats["edges"],
            "shard_rows": stats["shard_rows"],
            "peak_mb": f"{stats['tracemalloc_peak_mb']:.1f}",
            "budget_mb": budget_bytes // 2**20,
            "edges_per_sec": f"{stats['rows_per_sec']:,.0f}",
        }],
    )
    bench_recorder.record(
        "scale", "sharded_one_to_many_10m",
        rows_per_sec=round(stats["rows_per_sec"], 1),
        tracemalloc_peak_mb=round(stats["tracemalloc_peak_mb"], 2),
        edges=stats["edges"],
        budget_mb=budget_bytes // 2**20,
        shard_rows=stats["shard_rows"],
    )
    assert stats["edges"] >= 10_000_000
    assert stats["peak_bytes"] < budget_bytes, (
        f"peak {stats['peak_bytes']} exceeds the "
        f"{_BUDGET} memory budget"
    )


def test_process_backend_speedup_and_identity(tmp_path, bench_recorder):
    """~10M edges on ``backend="process"``: same bytes, more cores.

    Byte-identity against the single-worker thread run is asserted
    unconditionally.  The throughput gate (>= 2x the serial run) only
    applies on machines with at least 4 CPUs — the Amdahl headroom
    simply is not there on smaller runners, and wall-clock on a
    starved box would gate noise, not code.
    """
    persons = _PERSONS[profile_name()]
    schema = _one_to_many_schema()
    scale = {"Person": persons}
    serial = _run_sharded(schema, scale, _BUDGET, tmp_path, "ser")
    stats = _run_sharded(
        schema, scale, _BUDGET, tmp_path, "p4",
        workers=4, backend="process",
    )
    budget_bytes = parse_memory_budget(_BUDGET)
    speedup = stats["rows_per_sec"] / serial["rows_per_sec"]
    cpus = os.cpu_count() or 1
    print_table(
        f"scale smoke: one_to_many, process backend x4 ({cpus} CPUs)",
        [{
            "edges": stats["edges"],
            "serial_eps": f"{serial['rows_per_sec']:,.0f}",
            "process_eps": f"{stats['rows_per_sec']:,.0f}",
            "speedup": f"{speedup:.2f}x",
            "peak_mb": f"{stats['tracemalloc_peak_mb']:.1f}",
            "budget_mb": budget_bytes // 2**20,
        }],
    )
    bench_recorder.record(
        "scale", "sharded_one_to_many_10m_p4",
        rows_per_sec=round(stats["rows_per_sec"], 1),
        tracemalloc_peak_mb=round(stats["tracemalloc_peak_mb"], 2),
        edges=stats["edges"],
        speedup_vs_serial=round(speedup, 2),
        cpus=cpus,
    )
    assert _tree_digests(tmp_path / "out-p4") == \
        _tree_digests(tmp_path / "out-ser"), (
            "process backend output diverged from the serial run"
        )
    assert stats["peak_bytes"] < budget_bytes, (
        f"peak {stats['peak_bytes']} exceeds the "
        f"{_BUDGET} memory budget"
    )
    if cpus >= 4:
        assert speedup >= 2.0, (
            f"process backend with 4 workers on {cpus} CPUs only "
            f"reached {speedup:.2f}x over the serial run"
        )


def test_erdos_renyi_global_stage_constant(tmp_path, bench_recorder):
    """G(n, m): the sampling transient stays at its pinned constant."""
    scale = {"Person": _ERM_NODES}
    stats = _run_sharded(
        _erdos_renyi_schema(), scale, "64MB", tmp_path, "erm",
    )
    bytes_per_edge = stats["peak_bytes"] / stats["edges"]
    print_table(
        "scale smoke: erdos_renyi_m global sampling stage",
        [{
            "edges": stats["edges"],
            "peak_mb": f"{stats['tracemalloc_peak_mb']:.1f}",
            "bytes_per_edge": f"{bytes_per_edge:.0f}",
            "limit": _ERM_BYTES_PER_EDGE_LIMIT,
        }],
    )
    bench_recorder.record(
        "scale", "sharded_erdos_renyi_2m",
        rows_per_sec=round(stats["rows_per_sec"], 1),
        tracemalloc_peak_mb=round(stats["tracemalloc_peak_mb"], 2),
        edges=stats["edges"],
        bytes_per_edge=round(bytes_per_edge, 1),
    )
    assert bytes_per_edge < _ERM_BYTES_PER_EDGE_LIMIT, (
        "the G(n, m) dedup transient grew beyond its pinned "
        f"constant ({bytes_per_edge:.0f} B/edge)"
    )
