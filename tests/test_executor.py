"""Tests for how a batch run is configured and how it fails.

Byte identity of every execution path with the serial engine, for any
schema, is the differential oracle
(``tests/test_property_based.py::TestDifferentialOracle``).  These
tests pin what the oracle cannot see: the values :class:`RunOptions`
refuses, and the exception a failing kernel surfaces as in memory and
on the out-of-core pool.
"""

from __future__ import annotations

import re

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
    ShardedExecutor,
)
from repro.properties.base import PropertyGenerator
from repro.properties.registry import register_property_generator
from repro.scenarios import load_zoo, run_scenario


class _Exploding(PropertyGenerator):
    name = "executor_test_exploding"

    def parameter_names(self):
        return set()

    def run_many(self, ids, stream, *deps):
        if len(ids) and ids[-1] >= 64:
            raise RuntimeError("kernel exploded")
        return np.zeros(len(ids), dtype=np.int64)


def _exploding_schema():
    register_property_generator(_Exploding)
    return Schema(node_types=[NodeType("T", properties=[
        PropertyDef("x", "long", GeneratorSpec(_Exploding.name, {})),
    ])])


class TestValidation:
    @pytest.mark.parametrize("backend", ["mpi", "serial"])
    def test_rejects_bad_backend(self, backend):
        with pytest.raises(ValueError, match="backend"):
            RunOptions(shard_rows=8, backend=backend)

    @pytest.mark.parametrize("field,value", [
        ("workers", 0), ("workers", 2.5), ("workers", "2"),
        ("workers", True), ("shard_rows", 0), ("shard_rows", 1.5),
        ("shard_rows", "64"), ("shard_rows", True), ("retries", -1),
        ("retries", 0.5), ("retries", "1"), ("retries", False),
    ])
    def test_rejects_a_bad_count(self, field, value):
        with pytest.raises(ValueError, match=(
            rf"^{field} must be .*, got {re.escape(repr(value))}$"
        )):
            RunOptions(**{"shard_rows": 8, field: value})

    def test_accepts_numpy_integers(self):
        options = RunOptions(workers=np.int64(2), shard_rows=np.int32(8),
                             retries=np.uint8(1))
        assert options.rows_per_shard == 8

    def test_front_ends_check_the_callers_value(self):
        schema = Schema(node_types=[NodeType("T")])
        with pytest.raises(ValueError, match="workers must be an integer"):
            ShardedExecutor(schema, {"T": 1}, shard_rows=8, workers=2.5)
        with pytest.raises(ValueError, match="retries must be an integer"):
            ShardedExecutor(schema, {"T": 1}, shard_rows=8, retries=0.5)
        with pytest.raises(ValueError, match="shard_rows must be an integer"):
            ShardedExecutor(schema, {"T": 1}, shard_rows=1.5)
        with pytest.raises(ValueError, match="workers must be an integer"):
            run_scenario(load_zoo("social_network"), workers="2")

    def test_rejects_malformed_fault_specs(self, monkeypatch):
        with pytest.raises(ValueError, match="bad fault spec 'bogus'"):
            RunOptions(shard_rows=8, faults="bogus")
        monkeypatch.setenv("REPRO_FAULTS", "nope:1:crash")
        with pytest.raises(ValueError, match="REPRO_FAULTS: unknown"):
            RunOptions(shard_rows=8)
        with pytest.raises(ValueError, match="REPRO_FAULTS: unknown"):
            RunOptions()  # in memory too: every run reads the variable

    def test_schema_errors_propagate(self):
        schema = Schema(
            node_types=[
                NodeType("T", properties=[PropertyDef("a", "string")])
            ],
        )
        with pytest.raises(SchemaError, match="no property generator"):
            GraphGenerator(schema, {"T": 5}).generate()

    def test_kernel_failure_carries_the_worker_traceback(self, registries):
        executor = ShardedExecutor(
            _exploding_schema(), {"T": 200}, shard_rows=64, workers=2,
            backend="thread",
        )
        with pytest.raises(ShardedError, match="exploded") as info:
            executor.run()
        assert info.value.shard == 1
        assert "run_many" in info.value.worker_traceback

    def test_in_memory_kernel_failure_is_the_kernels_own(self, registries):
        with pytest.raises(RuntimeError, match="exploded") as info:
            GraphGenerator(_exploding_schema(), {"T": 200}).generate()
        assert not isinstance(info.value, ShardedError)
