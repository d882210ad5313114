"""Tests for ``workers=N`` over the in-memory engine.

Byte identity of ``generate(workers=2)`` with the serial engine, for
any schema, is a leg of the differential oracle
(``tests/test_property_based.py::TestDifferentialOracle``).  These
tests pin what the oracle cannot see: that tables really are filled in
shards, the two ways of asking for workers, and the errors a pooled
run raises.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    GeneratorSpec,
    GraphGenerator,
    NodeType,
    PropertyDef,
    RunOptions,
    Schema,
    SchemaError,
    ShardedError,
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
