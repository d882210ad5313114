"""Tests for ``workers=N`` over the in-memory engine.

The acceptance bar: ``generate(workers=k)`` is bit-identical to the
serial engine for every task kind — count, property, structure, match,
edge_property — for ``k`` in {1, 2, 4}, with every property table cut
into several shards (``DEFAULT_SHARD_ROWS`` patched small).  The
determinism matrix at the bottom extends the contract to IO: streamed
exports are byte-equal for every (workers, chunk_size, format)
combination.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    Cardinality,
    CorrelationSpec,
    EdgeType,
    GeneratorSpec,
    GraphGenerator,
    NodeType,
    PropertyDef,
    RunOptions,
    Schema,
    SchemaError,
    ShardedError,
    execute,
    run,
)
from repro.datasets import social_network_schema
from repro.properties.base import PropertyGenerator
from repro.properties.registry import register_property_generator


def assert_graphs_identical(expected, actual):
    """Bit-identity including dict insertion order and value dtypes."""
    assert expected.node_counts == actual.node_counts
    assert list(expected.node_counts) == list(actual.node_counts)

    assert list(expected.node_properties) == list(actual.node_properties)
    for key, pt in expected.node_properties.items():
        other = actual.node_properties[key]
        assert pt == other, key
        assert pt.values.dtype == other.values.dtype, key

    assert list(expected.edge_tables) == list(actual.edge_tables)
    for key, table in expected.edge_tables.items():
        assert table == actual.edge_tables[key], key

    assert list(expected.edge_properties) == list(actual.edge_properties)
    for key, pt in expected.edge_properties.items():
        other = actual.edge_properties[key]
        assert pt == other, key
        assert pt.values.dtype == other.values.dtype, key

    assert list(expected.match_results) == list(actual.match_results)
    for key, match in expected.match_results.items():
        other = actual.match_results[key]
        if match is None:
            assert other is None, key
            continue
        for attr in ("mapping", "tail_mapping", "head_mapping"):
            mine = getattr(match, attr, None)
            if mine is not None:
                assert np.array_equal(mine, getattr(other, attr)), key


@pytest.fixture(autouse=True)
def small_shards(monkeypatch):
    """Several shards per table at test sizes."""
    monkeypatch.setattr(run, "DEFAULT_SHARD_ROWS", 64)


@pytest.fixture(scope="module")
def social_serial():
    """Serial reference output exercising every task kind: scale and
    structure-inferred counts, plain and conditional properties, LFR
    and one-to-many structures, correlated and strict-cardinality
    matching, and edge properties with endpoint dependencies."""
    schema = social_network_schema(num_countries=8)
    return GraphGenerator(schema, {"Person": 400}, seed=23).generate()


class TestBitIdentity:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_social_network_across_worker_counts(
        self, social_serial, workers
    ):
        schema = social_network_schema(num_countries=8)
        graph = execute(
            schema, {"Person": 400}, 23, RunOptions(workers=workers)
        )
        assert_graphs_identical(social_serial, graph)

    def test_tables_really_are_filled_in_shards(self, monkeypatch):
        from repro.core import engine

        calls = []
        kernel = engine.property_shard_values
        monkeypatch.setattr(
            engine, "property_shard_values",
            lambda *args: calls.append(args[3:5]) or kernel(*args),
        )
        schema = Schema(node_types=[NodeType("T", properties=[
            PropertyDef("x", "long", GeneratorSpec(
                "uniform_int", {"low": 0, "high": 9}
            )),
        ])])
        GraphGenerator(schema, {"T": 150}, workers=2).generate()
        assert calls == [(0, 64), (64, 128), (128, 150)]
        del calls[:]
        GraphGenerator(schema, {"T": 64}, workers=2).generate()
        assert calls == []  # one shard: the single apply_task call

    def test_generator_workers_flag(self, social_serial):
        schema = social_network_schema(num_countries=8)
        graph = GraphGenerator(
            schema, {"Person": 400}, seed=23, workers=2
        ).generate()
        assert_graphs_identical(social_serial, graph)

    def test_generate_call_override(self, social_serial):
        schema = social_network_schema(num_countries=8)
        generator = GraphGenerator(schema, {"Person": 400}, seed=23)
        graph = generator.generate(workers=2)
        assert_graphs_identical(social_serial, graph)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_bipartite_correlated(self, workers):
        """Bipartite many-to-many with a cross-type correlation — the
        match kernel's remaining branch."""
        from repro.stats import Zipf

        person = NodeType(
            "Person",
            properties=[
                PropertyDef(
                    "group",
                    "long",
                    GeneratorSpec(
                        "categorical",
                        {"values": [0, 1], "weights": [0.5, 0.5]},
                    ),
                )
            ],
        )
        item = NodeType(
            "Item",
            properties=[
                PropertyDef(
                    "kind",
                    "long",
                    GeneratorSpec(
                        "categorical",
                        {"values": [0, 1], "weights": [0.5, 0.5]},
                    ),
                )
            ],
        )
        likes = EdgeType(
            "likes",
            "Person",
            "Item",
            structure=GeneratorSpec(
                "bipartite_configuration",
                {
                    "tail_distribution": Zipf(1.2, 6),
                    "head_distribution": Zipf(1.2, 6),
                    "tail_offset": 1,
                    "head_offset": 1,
                    "head_nodes": 120,
                },
            ),
            correlation=CorrelationSpec(
                tail_property="group",
                head_property="kind",
                joint=np.array([[0.45, 0.05], [0.05, 0.45]]),
            ),
            directed=True,
        )
        schema = Schema(node_types=[person, item], edge_types=[likes])
        scale = {"Person": 120, "Item": 120}
        serial = GraphGenerator(schema, scale, seed=4).generate()
        parallel = GraphGenerator(
            schema, scale, seed=4, workers=workers
        ).generate()
        assert_graphs_identical(serial, parallel)

    def test_edge_count_anchor(self):
        """Scale anchored on an edge count: sizing via get_num_nodes in
        the coordinator must match the serial path."""
        schema = Schema(
            node_types=[
                NodeType(
                    "T",
                    properties=[
                        PropertyDef(
                            "x",
                            "long",
                            GeneratorSpec(
                                "uniform_int", {"low": 0, "high": 9}
                            ),
                        )
                    ],
                )
            ],
            edge_types=[
                EdgeType(
                    "e",
                    "T",
                    "T",
                    structure=GeneratorSpec(
                        "erdos_renyi_m", {"edges_per_node": 4}
                    ),
                )
            ],
        )
        serial = GraphGenerator(schema, {"e": 1000}, seed=6).generate()
        parallel = GraphGenerator(
            schema, {"e": 1000}, seed=6, workers=2
        ).generate()
        assert_graphs_identical(serial, parallel)
        assert parallel.num_edges("e") == 1000


#: chunk sizes of the determinism matrix: a tiny chunk (many boundary
#: crossings), a mid-size chunk, and one larger than any table (the
#: whole-table degenerate case).
EXPORT_CHUNK_SIZES = (7, 1000, 10**9)
EXPORT_FORMATS = ("csv", "jsonl", "edgelist", "graphml")


class TestExportDeterminismMatrix:
    """workers {1,2,4} x chunk_size {7, 1000, whole-table}: streamed
    exports of every format must be byte-equal to the serial
    whole-table reference."""

    @pytest.fixture(scope="class")
    def reference_exports(self, social_serial, tmp_path_factory):
        """Post-hoc export of the serial graph, one directory per
        format, at whole-table chunk size."""
        from repro.io import export_graph, make_sink

        root = tmp_path_factory.mktemp("reference")
        exports = {}
        for fmt in EXPORT_FORMATS:
            out = root / fmt
            export_graph(
                social_serial, make_sink(fmt, out, chunk_size=10**9)
            )
            exports[fmt] = out
        return exports

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("chunk_size", EXPORT_CHUNK_SIZES)
    def test_streamed_exports_byte_equal(
        self, reference_exports, tmp_path, workers, chunk_size
    ):
        from repro.io import make_sink

        schema = social_network_schema(num_countries=8)
        sinks = {
            fmt: make_sink(
                fmt, tmp_path / fmt, chunk_size=chunk_size
            )
            for fmt in EXPORT_FORMATS
        }
        generator = GraphGenerator(
            schema, {"Person": 400}, seed=23, workers=workers
        )
        for fmt, sink in sinks.items():
            # Regenerate per format: each run must independently
            # reproduce the reference bytes while streaming.
            graph = generator.generate(sink=sink)
            assert graph.num_nodes("Person") == 400
            reference = reference_exports[fmt]
            produced = {p.name for p in sink.written}
            expected = {p.name for p in reference.iterdir()}
            assert produced == expected, fmt
            for path in sorted(reference.iterdir()):
                assert (tmp_path / fmt / path.name).read_bytes() == \
                    path.read_bytes(), (fmt, path.name)

    @pytest.fixture(scope="class")
    def compressed_reference(self, tmp_path_factory):
        """Serial gzip export — the reference .gz bytes."""
        from repro.io import make_sink

        schema = social_network_schema(num_countries=8)
        out = tmp_path_factory.mktemp("gzref")
        sink = make_sink("csv", out, chunk_size=128, compress=True)
        GraphGenerator(
            schema, {"Person": 400}, seed=23
        ).generate(sink=sink)
        return {p.name: p.read_bytes() for p in sink.written}

    @pytest.mark.parametrize("workers", [2, 4])
    def test_compressed_exports_byte_equal_across_workers(
        self, compressed_reference, tmp_path, workers
    ):
        """gzip output is deterministic too: identical .gz bytes for
        every worker count."""
        from repro.io import make_sink

        schema = social_network_schema(num_countries=8)
        sink = make_sink(
            "csv", tmp_path / "out", chunk_size=128, compress=True
        )
        GraphGenerator(
            schema, {"Person": 400}, seed=23, workers=workers
        ).generate(sink=sink)
        assert {p.name for p in sink.written} == \
            set(compressed_reference)
        for path in sink.written:
            assert path.read_bytes() == \
                compressed_reference[path.name], path.name


class _Exploding(PropertyGenerator):
    name = "executor_test_exploding"

    def parameter_names(self):
        return set()

    def run_many(self, ids, stream, *deps):
        if len(ids) and ids[0] >= 64:
            raise RuntimeError("kernel exploded")
        return np.zeros(len(ids), dtype=np.int64)


class TestValidation:
    @pytest.mark.parametrize("backend", ["mpi", "serial"])
    def test_rejects_bad_backend(self, backend):
        with pytest.raises(ValueError, match="backend"):
            RunOptions(shard_rows=8, backend=backend)

    def test_rejects_bad_workers(self):
        schema = Schema(node_types=[NodeType("T")])
        with pytest.raises(ValueError, match="workers"):
            GraphGenerator(schema, {"T": 1}, workers=0)
        with pytest.raises(ValueError, match="workers"):
            GraphGenerator(schema, {"T": 1}).generate(workers=0)
        with pytest.raises(ValueError, match="workers"):
            RunOptions(workers=0)

    def test_rejects_malformed_fault_specs(self, monkeypatch):
        with pytest.raises(ValueError, match="bad fault spec 'bogus'"):
            RunOptions(shard_rows=8, faults="bogus")
        monkeypatch.setenv("REPRO_FAULTS", "nope:1:crash")
        with pytest.raises(ValueError, match="REPRO_FAULTS: unknown"):
            RunOptions(shard_rows=8)
        RunOptions()  # in memory the variable is never read

    def test_schema_errors_propagate(self):
        schema = Schema(
            node_types=[
                NodeType("T", properties=[PropertyDef("a", "string")])
            ],
        )
        with pytest.raises(SchemaError, match="no property generator"):
            GraphGenerator(schema, {"T": 5}, workers=2).generate()

    def test_kernel_failure_carries_the_worker_traceback(self, registries):
        register_property_generator(_Exploding)
        schema = Schema(node_types=[NodeType("T", properties=[
            PropertyDef("x", "long", GeneratorSpec(_Exploding.name, {})),
        ])])
        with pytest.raises(ShardedError, match="exploded") as info:
            GraphGenerator(schema, {"T": 200}, workers=2).generate()
        assert info.value.shard == 1
        assert "run_many" in info.value.worker_traceback
