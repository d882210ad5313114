"""One behaviour under four front ends.

The serial engine, the DAG-parallel executor, the out-of-core sharded
executor and the serving layer plan through ``build_task_graph``, hold
structures through ``repro.core.structures`` and derive matching maps
through ``tasks.matching_maps``.  These tests pin the shared pieces
directly and check that every front end surfaces the same errors.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    Cardinality,
    EdgeType,
    GeneratorSpec,
    GraphGenerator,
    NodeType,
    ParallelExecutor,
    Schema,
    SchemaError,
    ShardedExecutor,
)
from repro.core.structures import (
    SpilledStructure,
    StreamStructure,
    StructureHandle,
    emit_matched,
    open_structure,
)
from repro.core.tasks import (
    generate_structure,
    is_correlated,
    match_edge,
    matching_maps,
)
from repro.datasets import social_network_schema
from repro.io.spool import TableSpool
from repro.prng import derive_seed
from repro.serve import VirtualGraph
from repro.stats import Zipf


def _serial(schema, scale):
    GraphGenerator(schema, scale, seed=1).generate()


def _dag(schema, scale):
    ParallelExecutor(
        schema, scale, seed=1, workers=2, backend="thread"
    ).run()


def _sharded(schema, scale):
    ShardedExecutor(schema, scale, seed=1, shard_rows=64).run().cleanup()


def _served(schema, scale):
    VirtualGraph(schema, scale, seed=1).warm().close()


FRONT_ENDS = {
    "serial": _serial, "dag": _dag, "sharded": _sharded, "served": _served,
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


class TestMatchingSizeMismatch:
    """A structure with more nodes than instances to match them to."""

    def test_more_tails_than_instances(self):
        edge = strict_schema().edge_type("creates")
        structure = StructureHandle("s", 50, 20, 50, True)
        with pytest.raises(
            SchemaError,
            match="'creates': structure has more tails than 'Person' "
                  "instances",
        ):
            matching_maps(edge, 0, "match:creates", structure, 10, 50)

    def test_more_nodes_than_instances(self):
        edge = mono_schema().edge_type("knows")
        structure = StructureHandle("s", 50, 20, 20, False)
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


#: (schema, structure size, handle type) per permutation branch of
#: ``matching_maps``; the last one is a sequential generator, held
#: spilled instead of re-emitted.
BRANCHES = {
    "strict": (strict_schema, 60, StreamStructure),
    "bipartite": (bipartite_schema, 90, StreamStructure),
    "monopartite": (mono_schema, 80, StreamStructure),
    "monopartite-sequential": (
        lambda: mono_schema("barabasi_albert", m=3),
        80, SpilledStructure,
    ),
}


class TestMatchingMapsContract:
    """``matching_maps`` + ``emit`` relabel == the serial ``match_edge``."""

    @pytest.mark.parametrize("branch", BRANCHES)
    def test_chunked_relabel_equals_match_edge(self, branch, tmp_path):
        make_schema, n, handle_type = BRANCHES[branch]
        (edge,) = make_schema().edge_types.values()
        assert not is_correlated(edge)
        seed, task_id = 11, f"match:{edge.name}"
        sg_seed = derive_seed(seed, f"structure:{edge.name}")
        table = generate_structure(edge.structure, sg_seed, n)
        tail_count, head_count = n, table.num_head_nodes
        expected, diagnostics = match_edge(
            edge, seed, task_id, table, tail_count, head_count
        )
        assert diagnostics is None

        spool = TableSpool(tmp_path, 16)
        try:
            handle = open_structure(
                edge.structure, sg_seed, n, 16,
                spool.spiller(f"structure.{edge.name}"),
            )
            assert type(handle) is handle_type
            assert handle.metadata() == StructureHandle(
                **handle.metadata()
            ).metadata()
            assert handle.to_edge_table() == table
            tail_map, head_map = matching_maps(
                edge, seed, task_id, handle, tail_count, head_count
            )
            pages = [
                emit_matched(handle, lo, min(lo + 7, len(table)),
                             tail_map, head_map)
                for lo in range(0, len(table), 7)
            ]
        finally:
            spool.close_views()
        assert np.array_equal(
            np.concatenate([p[0] for p in pages]), expected.tails
        )
        assert np.array_equal(
            np.concatenate([p[1] for p in pages]), expected.heads
        )
        assert len(tail_map) == expected.num_tail_nodes
        assert (head_map is None) == edge.is_strict
        assert (head_map is tail_map) == (branch.startswith("mono"))
