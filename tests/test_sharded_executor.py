"""Out-of-core sharded generation: the executor, its spool and catalog.

The load-bearing claim of ``core/sharded.py`` is *byte-identity*: for
any shard size, worker count and backend, streaming the pipeline per
id-range shard into the existing sinks writes exactly the bytes the
in-memory ``export_graph`` writes.  The differential oracle
(``tests/test_property_based.py::TestDifferentialOracle``) holds every
random schema it draws to that claim on both backends.  These tests
pin the rest: materialisation and read-back, memory budgets, spool
cleanup on failure, crash containment, and the spool and its catalog
underneath it.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    GraphGenerator,
    RunOptions,
    ShardedError,
    parse_memory_budget,
)
from repro.core.schema import (
    Cardinality,
    EdgeType,
    GeneratorSpec,
    NodeType,
    PropertyDef,
    Schema,
)
from repro.core.run import shard_rows_for_budget
from repro.core import CHECKPOINT_NAME
from repro.io import TableSpool
from repro.scenarios import compile_scenario
from repro.scenarios.zoo import load_zoo
from repro.stats import Zipf

@pytest.fixture(scope="module")
def rmat_recipe():
    """The zoo's R-MAT web graph at 512 pages, with its serial run."""
    compiled = compile_scenario(load_zoo("web_graph_rmat"),
                                scale={"Page": 512})
    serial = GraphGenerator(
        compiled.schema, compiled.scale, seed=compiled.seed
    ).generate()
    return compiled, serial


class TestShardedTables:
    """Shard sizes chosen from memory budgets."""

    def test_memory_budget_selects_shard_rows(self):
        assert parse_memory_budget("1KB") == 1024
        assert parse_memory_budget("512MB") == 512 * 1024**2
        assert parse_memory_budget("2GiB") == 2 * 1024**3
        assert parse_memory_budget(4096) == 4096
        assert shard_rows_for_budget(parse_memory_budget("64MB")) == (
            64 * 1024**2 // 512
        )
        # Tiny budgets clamp to the floor instead of degenerating.
        assert shard_rows_for_budget(1) == 1024
        with pytest.raises(ValueError):
            parse_memory_budget("a lot")
        with pytest.raises(ValueError):
            parse_memory_budget(0)

    def test_fractional_budgets_parse(self):
        """Regression: fractional sizes in every accepted spelling.

        ``".5GB"`` used to fail outright (the regex required a digit
        before the dot) and bare fractions truncated to 0 bytes,
        surfacing as a misleading "must be positive" error.
        """
        assert parse_memory_budget("1.5GB") == int(1.5 * 1024**3)
        assert parse_memory_budget("0.5GiB") == 512 * 1024**2
        assert parse_memory_budget(".5GB") == 512 * 1024**2
        assert parse_memory_budget(".25 MB") == 256 * 1024
        assert parse_memory_budget("1.5K") == 1536
        # Fractional *byte* counts are rejected, not truncated.
        with pytest.raises(ValueError, match="fractional byte"):
            parse_memory_budget("0.5")
        with pytest.raises(ValueError, match="fractional byte"):
            parse_memory_budget("1.5B")

    def test_budget_error_lists_accepted_forms(self):
        """The parse error teaches the accepted spellings."""
        with pytest.raises(ValueError) as exc_info:
            parse_memory_budget("a lot")
        message = str(exc_info.value)
        assert "512MB" in message
        assert "1.5GB" in message
        assert "KiB/MiB/GiB/TiB" in message

    def test_budget_boundary_forms(self):
        assert parse_memory_budget("1b") == 1
        assert parse_memory_budget("  2 GiB ") == 2 * 1024**3
        assert parse_memory_budget("1t") == 1024**4
        assert parse_memory_budget(np.int64(4096)) == 4096
        for bad in ("", ".", "GB", "1.5.5GB", "-1MB", "1e3MB"):
            with pytest.raises(ValueError):
                parse_memory_budget(bad)


def _one_to_many_schema():
    """The one-to-many schema of docs/scaling.md's 1B-edge recipe."""
    schema = Schema(node_types=[NodeType("Person"), NodeType("Message")])
    schema.add_edge_type(EdgeType(
        "creates", tail_type="Person", head_type="Message",
        cardinality=Cardinality.ONE_TO_MANY, directed=True,
        structure=GeneratorSpec("one_to_many", {
            "degree_distribution": Zipf(0.6, 10), "degree_offset": 1,
        }),
    ))
    return schema


def _budget_warnings(schema, scale, budget):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        GraphGenerator(schema, scale, seed=7).generate(
            options=RunOptions(memory_budget=budget)
        ).cleanup()
    return [str(w.message) for w in caught
            if issubclass(w.category, RuntimeWarning)]


class TestMemoryBudgetWarnings:
    """A matching is one global stage the budget cannot bound; the run
    says so, once per edge type, when it may exceed the budget."""

    def test_permutation_matching_above_the_budget_warns(self):
        # 45 B x 5 000 permuted tails = 225 000 B > 64 KiB.
        assert _budget_warnings(
            _one_to_many_schema(), {"Person": 5_000}, "64KB"
        ) == [
            "memory budget of 65536 B does not bound edge 'creates': its "
            "permutation matching of 5000 nodes needs about 225000 B"
        ]

    def test_permutation_matching_within_the_budget_is_silent(self):
        # The sharded_o2m benchmark's shape: 45 B x 300 000 < 32 MiB.
        assert _budget_warnings(
            _one_to_many_schema(), {"Person": 300_000}, "32MB"
        ) == []

    def test_correlated_matching_always_warns(self):
        compiled = compile_scenario(load_zoo("social_network"),
                                    scale={"Person": 300})
        [message] = _budget_warnings(
            compiled.schema, compiled.scale, "1GB"
        )
        assert message.startswith(
            "memory budget of 1073741824 B does not bound edge 'knows': "
            "a correlated (SBM-Part) matching holds its whole "
        )

    def test_shard_rows_alone_set_no_budget_to_warn_about(self):
        compiled = compile_scenario(load_zoo("social_network"),
                                    scale={"Person": 300})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            GraphGenerator(compiled.schema, compiled.scale, seed=7).generate(
                options=RunOptions(shard_rows=1024)
            ).cleanup()


class TestSpoolCleanupOnFailure:
    """Regression: a mid-run failure must not leak the temp spool.

    An out-of-core run creates its own spool directory when the
    caller does not pass ``spool_dir``; a stage raising mid-run used
    to abandon that directory (and its shard files) in ``$TMPDIR``.
    """

    @staticmethod
    def _failing_schema():
        from repro.properties.base import PropertyGenerator
        from repro.properties.registry import (
            register_property_generator,
        )

        class ExplodingPG(PropertyGenerator):
            name = "sharded_test_exploding"
            access = "random"

            def parameter_names(self):
                return set()

            def run_many(self, ids, stream, *deps):
                raise RuntimeError("injected stage failure")

        register_property_generator(ExplodingPG)
        return Schema(node_types=[
            NodeType("Person", properties=[
                PropertyDef(
                    "age", "long",
                    GeneratorSpec("uniform_int", {"low": 1, "high": 9}),
                ),
                PropertyDef(
                    "boom", "long",
                    GeneratorSpec("sharded_test_exploding", {}),
                ),
            ]),
        ])

    @staticmethod
    def _temp_spools():
        import tempfile

        tmp = Path(tempfile.gettempdir())
        return {p for p in tmp.glob("repro-spool-*")}

    def test_owned_spool_removed_when_stage_raises(self, registries):
        schema = self._failing_schema()
        before = self._temp_spools()
        with pytest.raises(RuntimeError, match="injected"):
            GraphGenerator(schema, {"Person": 64}, seed=3).generate(
                options=RunOptions(shard_rows=16)
            )
        leaked = self._temp_spools() - before
        assert not leaked, (
            f"failed run leaked spool directories: {sorted(leaked)}"
        )

    def test_explicit_spool_dir_preserved_on_failure(self, tmp_path,
                                                     registries):
        """Caller-owned directories are never deleted — they may hold
        shards worth inspecting after the failure."""
        schema = self._failing_schema()
        spool_dir = tmp_path / "spool"
        with pytest.raises(RuntimeError, match="injected"):
            GraphGenerator(schema, {"Person": 64}, seed=3).generate(
                options=RunOptions(shard_rows=16, spool_dir=spool_dir)
            )
        assert spool_dir.exists()

    def test_successful_run_still_owns_and_keeps_spool(self):
        """The happy path is unchanged: the result owns its temp spool
        until ``cleanup()``."""
        schema = Schema(node_types=[
            NodeType("Person", properties=[
                PropertyDef(
                    "age", "long",
                    GeneratorSpec("uniform_int", {"low": 1, "high": 9}),
                ),
            ]),
        ])
        result = GraphGenerator(schema, {"Person": 64}, seed=3).generate(
            options=RunOptions(shard_rows=16)
        )
        spool_dir = Path(result.spool.directory)
        assert spool_dir.exists()
        result.cleanup()
        assert not spool_dir.exists()

    def test_budget_mode_is_identical_to_shard_rows_mode(
        self, rmat_recipe, tmp_path
    ):
        compiled, serial = rmat_recipe
        result = GraphGenerator(
            compiled.schema, compiled.scale, seed=compiled.seed
        ).generate(options=RunOptions(
            memory_budget="1MB", spool_dir=tmp_path / "spool"
        ))
        assert result.spool.shard_rows == shard_rows_for_budget(
            parse_memory_budget("1MB")
        )
        graph = result.materialize()
        for key, table in serial.edge_tables.items():
            assert graph.edge_tables[key] == table
        result.cleanup()


class TestProcessBackend:
    """``backend="process"``: identical bytes, crash containment, and
    a leak-free file lifecycle."""

    @staticmethod
    def _sigkill_schema():
        from repro.properties.base import PropertyGenerator
        from repro.properties.registry import (
            register_property_generator,
        )

        class SigkillPG(PropertyGenerator):
            name = "sharded_test_sigkill"
            access = "random"

            def parameter_names(self):
                return set()

            def run_many(self, ids, stream, *deps):
                import os
                import signal

                os.kill(os.getpid(), signal.SIGKILL)

        register_property_generator(SigkillPG)
        return Schema(node_types=[
            NodeType("Person", properties=[
                PropertyDef(
                    "boom", "long",
                    GeneratorSpec("sharded_test_sigkill", {}),
                ),
            ]),
        ])

    def test_worker_death_raises_sharded_error_and_cleans_spool(
        self, registries
    ):
        """SIGKILL mid-shard: a clean ShardedError, no leaked spool."""
        import tempfile

        schema = self._sigkill_schema()
        tmp = Path(tempfile.gettempdir())
        before = set(tmp.glob("repro-spool-*"))
        with pytest.raises(ShardedError, match="died mid-shard"):
            GraphGenerator(schema, {"Person": 64}, seed=3).generate(
                options=RunOptions(shard_rows=16, workers=2,
                                   backend="process")
            )
        leaked = set(tmp.glob("repro-spool-*")) - before
        assert not leaked, (
            f"crashed run leaked spool directories: {sorted(leaked)}"
        )


class TestMatchingStateIsSpilled:
    """Out of core the matching maps live in the spool whichever pool
    runs the shards: thread workers page them as spool views too."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_thread_backend_spills_matching_maps(self, monkeypatch,
                                                 tmp_path, workers):
        from repro.io.spool import SpillView, SpoolSpill

        spilled = {}
        park = SpoolSpill.__call__

        def spy(spill, name, array):
            view = park(spill, name, array)
            spilled[Path(view.path).stem] = view
            return view

        monkeypatch.setattr(SpoolSpill, "__call__", spy)
        schema = Schema(node_types=[NodeType("Person")], edge_types=[
            EdgeType("knows", "Person", "Person", structure=GeneratorSpec(
                "erdos_renyi_m", {"edges_per_node": 3}
            )),
        ])
        spool = tmp_path / "spool"
        result = GraphGenerator(schema, {"Person": 200}, seed=1).generate(
            options=RunOptions(shard_rows=64, workers=workers,
                               backend="thread", spool_dir=spool)
        )
        assert isinstance(spilled.get("match.knows.tail_map"), SpillView)
        # Dropped once the matched table is written.
        assert not list((spool / "scratch").glob("match.knows.*"))
        result.cleanup()


def test_spool_lifecycle_clean_under_resource_warnings(tmp_path):
    """A full sharded run + materialise + cleanup closes every mmap
    and file handle: the pipeline survives ``-W error::ResourceWarning``
    with a silent stderr (warnings raised inside ``__del__`` cannot
    change the exit code, so the assertion reads the stream too)."""
    import os
    import subprocess
    import sys

    import repro

    script = """
import gc
from pathlib import Path
from repro.core import GraphGenerator, RunOptions
from repro.io import make_sink
from repro.scenarios import compile_scenario
from repro.scenarios.zoo import load_zoo
from repro.stats import Zipf

out = Path({out!r})
compiled = compile_scenario(
    load_zoo("social_network"), scale={{"Person": 60}}
)
result = GraphGenerator(
    compiled.schema, compiled.scale, seed=compiled.seed
).generate(make_sink("csv", out / "csv"), RunOptions(
    shard_rows=25, workers=2, backend="process", spool_dir=out / "spool",
))
graph = result.materialize()
assert graph.edge_tables
result.cleanup()
del result, graph
gc.collect()
print("LIFECYCLE-OK")
""".format(out=str(tmp_path))
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-W", "error::ResourceWarning", "-c", script],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "LIFECYCLE-OK" in proc.stdout
    assert "ResourceWarning" not in proc.stderr, proc.stderr


class TestEmptyShardContract:
    """Zero-row tables keep their generator dtype end to end."""

    @staticmethod
    def _tiny_schema():
        schema = Schema(node_types=[
            NodeType("Person", properties=[
                PropertyDef(
                    "age", "long",
                    GeneratorSpec("uniform_int", {"low": 18, "high": 80}),
                ),
                PropertyDef(
                    "handle", "string",
                    GeneratorSpec("composite_key", {"prefix": "p"}),
                ),
            ]),
            NodeType("Message", properties=[
                PropertyDef(
                    "length", "long",
                    GeneratorSpec("uniform_int", {"low": 1, "high": 100}),
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
            cardinality=Cardinality.ONE_TO_MANY,
            directed=True,
            structure=GeneratorSpec("one_to_many", {
                "degree_distribution": _zipf(1.2, 4),
                "degree_offset": 0,
            }),
        ))
        return schema

    def test_empty_tables_recorded_in_catalog(self, tmp_path):
        schema = self._tiny_schema()
        result = GraphGenerator(schema, {"Person": 0}, seed=3).generate(
            options=RunOptions(shard_rows=8, spool_dir=tmp_path / "spool")
        )
        events = _catalog_events(tmp_path / "spool")
        acks = {e["table"]: e for e in events if e["event"] == "ack"}
        assert acks["Person.age"]["rows"] == 0
        assert acks["Person.age"]["dtype"] == "<i8"
        assert acks["Person.handle"]["dtype"] == "string"
        assert result.node_properties["Person.handle"].dtype == object
        assert acks["knows"]["rows"] == 0
        assert acks["knows"]["kind"] == "edge"
        seals = {e["table"]: e for e in events if e["event"] == "seal"}
        assert seals["knows"]["meta"]["num_tail_nodes"] == 0
        assert set(seals) == set(acks)
        result.cleanup()

    @pytest.mark.parametrize("shard_rows", [16, 4])
    def test_catalog_is_one_line_per_event(self, tmp_path, shard_rows):
        """Count-based scaling (no timers): the catalog is the header
        plus exactly one line per event — never a rewritten document —
        and an ack line does not grow with the number of acks."""
        schema = self._tiny_schema()
        spool_dir = tmp_path / "spool"
        result = GraphGenerator(schema, {"Person": 300}, seed=3).generate(
            options=RunOptions(shard_rows=shard_rows, spool_dir=spool_dir)
        )
        tables = [
            *result.node_properties.values(),
            *result.edge_tables.values(),
            *result.edge_properties.values(),
        ]
        acks = sum(len(table._shards) for table in tables)
        assert acks >= (100 if shard_rows == 4 else 25)
        lines = (spool_dir / CHECKPOINT_NAME).read_text().splitlines()
        events = _catalog_events(spool_dir)
        assert len(lines) == 1 + len(events)
        kinds = [e["event"] for e in events]
        assert kinds.count("ack") == acks
        assert kinds.count("seal") == len(tables)
        assert kinds.count("structure") == len(result.edge_tables)
        assert len(events) == acks + len(tables) + len(result.edge_tables)
        # One property part or two edge parts of digest per line: the
        # bound holds for 4x the acks (only the digit counts move).
        assert max(len(line) for line in lines) < 300
        # ... and the spool describes itself in that one file only.
        assert [p.name for p in spool_dir.rglob("*.json*")] == [
            CHECKPOINT_NAME
        ]
        result.cleanup()


def _catalog_events(spool_dir):
    header, *events = [
        json.loads(line) for line in
        (Path(spool_dir) / CHECKPOINT_NAME).read_text().splitlines()
    ]
    assert set(header) == {
        "catalog", "repro", "numpy", "fingerprint", "shard_rows",
    }
    return events


def _zipf(alpha, k):
    from repro.stats import Zipf

    return Zipf(alpha, k)


class TestTableSpool:
    """The spool layer in isolation."""

    def test_property_round_trip_across_shards(self, tmp_path):
        spool = TableSpool(tmp_path, shard_rows=4)
        values = np.arange(11, dtype=np.int64) * 3
        for index, (lo, hi) in enumerate(spool.shard_bounds(11)):
            spool.write_property_shard("T.x", index, values[lo:hi])
        table = spool.finish_property("T.x")
        assert len(table) == 11
        assert table.values.dtype == np.int64
        assert np.array_equal(table.read_range(0, 11), values)
        assert np.array_equal(table.read_range(3, 9), values[3:9])
        # Chunk starts are global — independent of shard geometry.
        chunks = list(table.iter_chunks(5))
        assert [lo for lo, _ in chunks] == [0, 5, 10]
        assert np.array_equal(
            np.concatenate([c for _, c in chunks]), values
        )
        assert np.array_equal(
            table.gather(np.array([10, 0, 5, 5])),
            values[[10, 0, 5, 5]],
        )

    def test_object_dtype_round_trip(self, tmp_path):
        spool = TableSpool(tmp_path, shard_rows=2)
        values = np.array(["a", "bb", None, "ccc"], dtype=object)
        spool.write_property_shard("T.s", 0, values[:2])
        spool.write_property_shard("T.s", 1, values[2:])
        table = spool.finish_property("T.s")
        assert table.values.dtype == object
        assert list(table.values) == list(values)
        assert list(np.asarray(table.values)) == list(values)

    def test_out_of_order_shard_rejected(self, tmp_path):
        spool = TableSpool(tmp_path, shard_rows=4)
        with pytest.raises(ValueError, match="out of order"):
            spool.write_property_shard(
                "T.x", 1, np.arange(4, dtype=np.int64)
            )

    def test_edge_table_round_trip(self, tmp_path):
        spool = TableSpool(tmp_path, shard_rows=3)
        tails = np.array([0, 1, 2, 3, 4], dtype=np.int64)
        heads = np.array([1, 2, 3, 4, 0], dtype=np.int64)
        spool.write_edge_shard("e", 0, tails[:3], heads[:3])
        spool.write_edge_shard("e", 1, tails[3:], heads[3:])
        table = spool.finish_edge("e", 5, 5, False)
        assert table.num_edges == 5
        t, h = table.read_range(1, 4)
        assert np.array_equal(t, tails[1:4])
        assert np.array_equal(h, heads[1:4])
        loaded = table.to_edge_table()
        assert np.array_equal(loaded.tails, tails)
        assert loaded.num_tail_nodes == 5

    def test_finish_edge_synthesizes_empty_int64_shard(self, tmp_path):
        spool = TableSpool(tmp_path, shard_rows=3)
        table = spool.finish_edge("e", 7, 7, True)
        assert len(table) == 0
        tails, heads = table.read_range(0, 0)
        assert tails.dtype == np.int64
        (ack,) = spool._tables["e"]["shards"]
        assert ack["columns"] == [["<i8", 0], ["<i8", 0]]
        assert spool._part_path(0, "e").stat().st_size == 0

    def test_spill_returns_mmap_view(self, tmp_path):
        from repro.io.spool import SpillView

        spool = TableSpool(tmp_path, shard_rows=3)
        array = np.arange(10, dtype=np.int64)
        view = spool.spiller("structure.e")("codes", array)
        assert isinstance(view, SpillView)
        assert isinstance(view.array, np.memmap)
        assert np.array_equal(np.asarray(view), array)
        assert np.array_equal(np.asarray(view[2:5]), array[2:5])
        spool.drop_scratch("structure.e")
        assert not spool.scratch_path("structure.e.codes").exists()

    def test_spill_view_pickles_as_path(self, tmp_path):
        import pickle

        spool = TableSpool(tmp_path, shard_rows=3)
        array = np.arange(6, dtype=np.int64)
        view = spool.spiller("structure.e")("codes", array)
        clone = pickle.loads(pickle.dumps(view))
        assert np.array_equal(np.asarray(clone), array)
        clone.close()
        spool.cleanup()
