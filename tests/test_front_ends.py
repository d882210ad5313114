"""One behaviour under four front ends.

The in-memory engine, the out-of-core sharded executor (inline, and
on a two-process pool) and the serving layer plan through
``build_task_graph``, hold structures through ``repro.core.structures``
and derive matching maps through ``tasks.matching_maps``; the batch
runs share one plan walk.
These tests pin the shared pieces directly and check that every front
end surfaces the same errors and the same bytes.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    Cardinality,
    EdgeType,
    GeneratorSpec,
    GraphGenerator,
    NodeType,
    RunOptions,
    Schema,
    SchemaError,
    ShardedExecutor,
    run as run_module,
)
from repro.core.structures import (
    MatchedEdges,
    adopted,
    metadata,
    open_structure,
)
from repro.core.tasks import is_correlated, matching_maps
from repro.datasets import social_network_schema
from repro.io import export_graph, make_sink
from repro.io.spool import IN_MEMORY, TableSpool
from repro.prng import derive_seed
from repro.serve import VirtualGraph
from repro.stats import Zipf
from repro.structure import create_generator


def _sink(out):
    return None if out is None else make_sink("csv", out, chunk_size=32)


def _serial(schema, scale, out=None):
    GraphGenerator(schema, scale, seed=1).generate(sink=_sink(out))


def _sharded(schema, scale, out=None, **pool):
    GraphGenerator(schema, scale, seed=1).generate(
        _sink(out), RunOptions(shard_rows=64, **pool)
    ).cleanup()


def _sharded_process(schema, scale, out=None):
    _sharded(schema, scale, out, workers=2, backend="process")


def _served(schema, scale, out=None):
    served = VirtualGraph(schema, scale, seed=1)
    try:
        served.warm()
        if out is not None:
            # The tables a client pages through, exported as they are.
            export_graph(served.graph, _sink(out))
    finally:
        served.close()


FRONT_ENDS = {
    "serial": _serial, "sharded": _sharded,
    "sharded-process": _sharded_process, "served": _served,
}
front_ends = pytest.mark.parametrize(
    "run", FRONT_ENDS.values(), ids=FRONT_ENDS.keys()
)


def mono_schema(structure="erdos_renyi_m", **params):
    params = params or {"edges_per_node": 5}
    return Schema(
        node_types=[NodeType("Person")],
        edge_types=[EdgeType(
            "knows", "Person", "Person",
            structure=GeneratorSpec(structure, params),
        )],
    )


def strict_schema():
    return Schema(
        node_types=[NodeType("Person"), NodeType("Message")],
        edge_types=[EdgeType(
            "creates", "Person", "Message",
            cardinality=Cardinality.ONE_TO_MANY,
            structure=GeneratorSpec(
                "one_to_many", {"degree_distribution": Zipf(1.2, 40)}
            ),
            directed=True,
        )],
    )


def bipartite_schema():
    return Schema(
        node_types=[NodeType("Person"), NodeType("Item")],
        edge_types=[EdgeType(
            "likes", "Person", "Item",
            structure=GeneratorSpec("bipartite_configuration", {
                "tail_distribution": Zipf(1.2, 6),
                "head_distribution": Zipf(1.2, 6),
                "tail_offset": 1,
                "head_offset": 1,
                "head_nodes": 90,
            }),
            directed=True,
        )],
    )


class TestScaleValidation:
    @front_ends
    def test_unknown_scale_type_rejected(self, run):
        schema = social_network_schema(num_countries=8)
        with pytest.raises(
            SchemaError, match=r"unknown types: \['Persn'\]"
        ):
            run(schema, {"Person": 50, "Persn": 3})

    @pytest.mark.parametrize("value", [-5, 2.5, True, float("inf"), "7"])
    @front_ends
    def test_bad_anchor_rejected(self, run, value):
        schema = social_network_schema(num_countries=8)
        with pytest.raises(
            SchemaError,
            match="^scale anchor 'Person' must be a non-negative integer",
        ):
            run(schema, {"Person": value})

    @pytest.mark.parametrize("value", [40.0, np.int64(40)])
    @front_ends
    def test_integral_anchor_accepted(self, run, value, tmp_path):
        _serial(mono_schema(), {"Person": 40}, tmp_path / "int")
        run(mono_schema(), {"Person": value}, tmp_path / "other")
        assert {
            p.name: p.read_bytes() for p in (tmp_path / "other").iterdir()
        } == {
            p.name: p.read_bytes() for p in (tmp_path / "int").iterdir()
        }


def _metadata_only(num_edges, num_tail_nodes, num_head_nodes, directed):
    """A structure as a resumed run adopts it: metadata, no edges."""
    return adopted({
        "name": "s", "num_edges": num_edges,
        "num_tail_nodes": num_tail_nodes,
        "num_head_nodes": num_head_nodes, "directed": directed,
    })


class TestMatchingSizeMismatch:
    """A structure with more nodes than instances to match them to."""

    def test_more_tails_than_instances(self):
        edge = strict_schema().edge_type("creates")
        structure = _metadata_only(50, 20, 50, True)
        with pytest.raises(
            SchemaError,
            match="'creates': structure has more tails than 'Person' "
                  "instances",
        ):
            matching_maps(edge, 0, "match:creates", structure, 10, 50)

    def test_more_nodes_than_instances(self):
        edge = mono_schema().edge_type("knows")
        structure = _metadata_only(50, 20, 20, False)
        with pytest.raises(
            SchemaError,
            match="'knows': structure has 20 nodes but 'Person' has 10 "
                  "instances",
        ):
            matching_maps(edge, 0, "match:knows", structure, 10, 10)

    @front_ends
    def test_strict_edge_same_error_everywhere(self, run):
        with pytest.raises(
            SchemaError,
            match="'creates': structure has more tails than 'Person' "
                  "instances",
        ):
            run(strict_schema(), {"Person": 10, "creates": 5000})

    @front_ends
    def test_monopartite_edge_same_error_everywhere(self, run):
        with pytest.raises(
            SchemaError,
            match="'knows': structure has 1000 nodes but 'Person' has "
                  "10 instances",
        ):
            run(mono_schema(), {"Person": 10, "knows": 5000})


class TestGeneratorCannotMakeThatManyNodes:
    @front_ends
    def test_lfr_smaller_than_its_average_degree(self, run):
        """The error names the edge type and the constraint, not the
        degree sampler's internals."""
        with pytest.raises(
            SchemaError,
            match="^knows: lfr needs more than avg_degree=18 nodes, "
                  "got 12$",
        ):
            run(mono_schema("lfr", avg_degree=18), {"Person": 12})

    @front_ends
    def test_rmat_node_count_not_a_power_of_two(self, run):
        with pytest.raises(
            SchemaError,
            match="^knows: rmat needs a node count that is a power of "
                  "two, got 12$",
        ):
            run(mono_schema("rmat", edge_factor=4), {"Person": 12})

    @front_ends
    def test_sbm_group_sizes_off_the_node_count(self, run):
        with pytest.raises(
            SchemaError,
            match=r"^knows: sbm group sizes sum to 20, expected n=30$",
        ):
            run(mono_schema(
                "sbm", sizes=[10, 10],
                probabilities=[[0.5, 0.1], [0.1, 0.5]],
            ), {"Person": 30})


class TestFewerStructureNodesThanInstances:
    """A permutation matching lands a small structure anywhere in the
    endpoint types' id space, which is therefore what the matched
    table declares (the serial engine used to declare the structure's
    size and trip its own id-space check)."""

    SCHEMA = Schema(
        node_types=[NodeType("P")],
        edge_types=[EdgeType(
            "k", "P", "P",
            structure=GeneratorSpec("erdos_renyi", {"p": 0.05}),
        )],
    )
    SCALE = {"P": 200, "k": 100}

    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("fewer-nodes")
        _serial(self.SCHEMA, self.SCALE, out)
        files = {p.name: p.read_bytes() for p in out.iterdir()}
        assert files["k.csv"].count(b"\n") == 91  # header + 90 edges
        assert b'"num_tail_nodes": 200' in files["manifest.json"]
        return files

    @front_ends
    def test_same_bytes_everywhere(self, run, reference, tmp_path):
        run(self.SCHEMA, self.SCALE, tmp_path)
        assert {
            p.name: p.read_bytes() for p in tmp_path.iterdir()
        } == reference


#: (schema, structure size, sequential?) per permutation branch of
#: ``matching_maps``; the last one is a sequential generator, whose
#: table is kept by the spill instead of re-emitted.
BRANCHES = {
    "strict": (strict_schema, 60, False),
    "bipartite": (bipartite_schema, 90, False),
    "monopartite": (mono_schema, 80, False),
    "monopartite-sequential": (
        lambda: mono_schema("barabasi_albert", m=3), 80, True,
    ),
}


class TestMatchingMapsContract:
    """``matching_maps`` + ``MatchedEdges`` over a structure stream ==
    the maps applied to the whole resident structure, with the
    structure kept by either spill."""

    @pytest.mark.parametrize("branch", BRANCHES)
    def test_chunked_relabel_equals_match_edge(self, branch, tmp_path):
        make_schema, n, sequential = BRANCHES[branch]
        (edge,) = make_schema().edge_types.values()
        assert not is_correlated(edge)
        seed, task_id = 11, f"match:{edge.name}"
        sg_seed = derive_seed(seed, f"structure:{edge.name}")
        table = create_generator(
            edge.structure.name, seed=sg_seed, **edge.structure.params
        ).run(n)
        tail_count, head_count = n, table.num_head_nodes
        # The reference relabel, written out over the resident table.
        tail_map, head_map = matching_maps(
            edge, seed, task_id, table, tail_count, head_count
        )
        expected = (
            tail_map[table.tails],
            table.heads if head_map is None else head_map[table.heads],
        )

        spool = TableSpool(tmp_path, 16)
        spilled_tails = spool.scratch_path(f"structure.{edge.name}.tails")
        try:
            for spill in (
                IN_MEMORY, spool.spiller(f"structure.{edge.name}")
            ):
                handle = open_structure(
                    edge.structure, sg_seed, n, 16, spill
                )
                assert metadata(adopted(metadata(handle))) \
                    == metadata(handle)
                assert handle.to_edge_table() == table
                tail_map, head_map = matching_maps(
                    edge, seed, task_id, handle, tail_count, head_count
                )
                matched = MatchedEdges(handle, tail_map, head_map)
                pages = [
                    matched.read_range(lo, min(lo + 7, len(table)))
                    for lo in range(0, len(table), 7)
                ]
                assert np.array_equal(
                    np.concatenate([p[0] for p in pages]), expected[0]
                )
                assert np.array_equal(
                    np.concatenate([p[1] for p in pages]), expected[1]
                )
            # Only a sequential table is spilled whole.
            assert spilled_tails.exists() == sequential
        finally:
            spool.close_views()
        assert len(tail_map) == tail_count
        assert (head_map is None) == edge.is_strict
        assert (head_map is tail_map) == (branch.startswith("mono"))


class TestOneWalk:
    def test_walk_is_the_only_sink_driver_in_core(self):
        """Every batch run goes through ``tasks.walk``: nothing else
        in ``repro.core`` begins or finishes a sink, and nothing else
        announces a task to one."""
        core = Path(run_module.__file__).parent
        calls = {
            (path.name, call)
            for path in core.rglob("*.py")
            for call in re.findall(
                r"\b(sink\.begin|sink\.finish|export_task_output)\(",
                path.read_text(),
            )
        }
        assert calls == {
            ("tasks.py", "sink.begin"), ("tasks.py", "sink.finish"),
            ("tasks.py", "export_task_output"),
        }
        text = (core / "tasks.py").read_text()
        assert text.count("sink.begin(") == text.count("sink.finish(") == 1
        # its definition and its one call, in walk
        assert text.count("export_task_output(") == 2

    def test_task_kind_is_dispatched_only_in_tasks(self):
        """What a task computes is decided once: no store looks at a
        task's kind, so none can compute a kind its own way."""
        src = Path(run_module.__file__).parents[1]
        assert {
            path.relative_to(src).as_posix()
            for path in src.rglob("*.py")
            if re.search(r"\btask\.kind\b", path.read_text())
        } == {"core/tasks.py"}

    def test_two_stores_and_one_driver(self):
        """Every batch run keeps its rows through one store over a
        spool; the only other store is the virtual one.  The one batch
        entry point, ``GraphGenerator.generate``, makes the one call
        into the one driver, and only the driver opens a disk spool."""
        src = Path(run_module.__file__).parents[1]
        texts = {
            path.relative_to(src).as_posix(): path.read_text()
            for path in src.rglob("*.py")
        }
        stores = {
            (name, match)
            for name, text in texts.items()
            for match in re.findall(r"class (\w+)\(Store\)", text)
        }
        assert stores == {
            ("core/sharded.py", "_BatchStore"),
            ("serve/virtual.py", "_VirtualStore"),
        }
        assert not any("ResidentStore" in text for text in texts.values())
        calls = {
            name: text.count("run_batch(")
            for name, text in texts.items() if "run_batch(" in text
        }
        # GraphGenerator.generate + the def
        assert calls == {"core/engine.py": 1, "core/sharded.py": 1}
        assert "def run_batch(" in texts["core/sharded.py"]
        assert not any(
            re.search(r"\bdef execute\(|\bShardedResult\b", text)
            for text in texts.values()
        )
        # The retry delay is ShardPool.BACKOFF, not a parameter.
        assert not any(
            "backoff=" in text
            or re.search(r"def \w+\([^)]*\bbackoff\b", text, re.DOTALL)
            for text in texts.values()
        )
        assert {
            name for name, text in texts.items()
            if text.count("TableSpool(") and name.startswith("core/")
        } == {"core/sharded.py"}


class TestBenchContract:
    """``bench/`` drives a plan through the six-argument
    ``apply_task(task, schema, scale, seed, result, structures)``
    (its traced in-memory run); the default store keeps resident
    tables and every structure's ``num_edges`` resolves.  It also
    spells its out-of-core runs as ``ShardedExecutor(...).run(sink=)``
    and plans through ``compiled.generator(workers=1)``."""

    @pytest.mark.parametrize("keywords", [
        {"shard_rows": 256, "backend": "process", "workers": 2},
        {"memory_budget": "1MB"},
    ], ids=["shard_rows", "memory_budget"])
    @pytest.mark.filterwarnings("ignore:memory budget:RuntimeWarning")
    def test_sharded_executor_keywords(self, keywords, tmp_path):
        from repro.core.run import parse_memory_budget, shard_rows_for_budget
        from repro.scenarios import compile_scenario, load_zoo

        compiled = compile_scenario(load_zoo("social_network"),
                                    scale={"Person": 300})
        args = compiled.schema, compiled.scale, compiled.seed
        assert compiled.generator(workers=1).plan() == (
            GraphGenerator(*args).plan()
        )
        executor = ShardedExecutor(
            *args, spool_dir=tmp_path / "spool", **keywords
        )
        assert executor.shard_rows == (
            shard_rows_for_budget(parse_memory_budget("1MB"))
            if "memory_budget" in keywords else keywords["shard_rows"]
        )

        def sink(name):
            return make_sink("csv", tmp_path / name,
                             chunk_size=executor.shard_rows)

        executor.run(sink=sink("shim")).cleanup()
        GraphGenerator(*args).generate(sink("door"), RunOptions(
            spool_dir=tmp_path / "spool2", **keywords
        )).cleanup()
        shim, door = (
            {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}
            for name in ("shim", "door")
        )
        assert shim and shim == door

    def test_six_argument_apply_task(self):
        from repro.core.result import PropertyGraph
        from repro.core.tasks import apply_task
        from repro.tables import EdgeTable, PropertyTable

        schema = social_network_schema(num_countries=8)
        scale = {"Person": 300}
        generator = GraphGenerator(schema, scale, seed=5)
        result = PropertyGraph(schema, 5)
        structures = {}
        for task in generator.plan():
            apply_task(task, schema, scale, 5, result, structures)
            if task.kind == "structure":
                assert structures[task.subject].num_edges >= 0
        assert structures.keys() == result.edge_tables.keys()
        assert all(structure.num_edges == len(structure)
                   for structure in structures.values())
        reference = generator.generate()
        for group in ("node_properties", "edge_properties"):
            tables = getattr(result, group)
            assert tables.keys() == getattr(reference, group).keys()
            for key, table in tables.items():
                assert type(table) is PropertyTable
                np.testing.assert_array_equal(
                    table.values, getattr(reference, group)[key].values
                )
        for name, table in result.edge_tables.items():
            assert type(table) is EdgeTable
            assert table == reference.edge_tables[name]
