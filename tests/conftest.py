"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.prng import RandomStream
from repro.stats import TruncatedGeometric
from repro.structure import LFR, RMat
from repro.tables import EdgeTable, PropertyTable


@pytest.fixture
def registries():
    """Snapshot the property- and structure-generator registries and
    restore them afterwards, so a test can register throwaway
    generators without leaking them into later test files."""
    from repro.properties import registry as properties
    from repro.structure import registry as structures

    saved = [
        (module._REGISTRY, dict(module._REGISTRY))
        for module in (properties, structures)
    ]
    yield
    for registry, snapshot in saved:
        registry.clear()
        registry.update(snapshot)


@pytest.fixture(scope="session")
def one_table_graph():
    """Builder of a hand-made graph around one table, the way a sink
    exports it: ``build(values)`` is node type ``T`` with property
    table ``T.x``; ``build(edges=table)`` is edge type ``table.name``
    from ``T`` to ``U``, sized to the table's id spaces."""
    from repro.core.result import PropertyGraph
    from repro.core.schema import (
        EdgeType, GeneratorSpec, NodeType, PropertyDef, Schema,
    )

    def build(values=None, edges=None):
        x = PropertyDef("x", "long", GeneratorSpec("uniform_int", {}))
        node_types = [
            NodeType("T", properties=[] if values is None else [x]),
            NodeType("U"),
        ]
        edge_types = [] if edges is None else [
            EdgeType(edges.name, "T", "U", directed=edges.directed)
        ]
        graph = PropertyGraph(Schema(node_types, edge_types), seed=0)
        if values is None:
            graph.node_counts = {"T": edges.num_tail_nodes,
                                 "U": edges.num_head_nodes}
            graph.edge_tables[edges.name] = edges
        else:
            graph.node_counts = {"T": len(values), "U": 0}
            graph.node_properties["T.x"] = PropertyTable("T.x", values)
        return graph

    return build


@pytest.fixture
def stream():
    """A fresh deterministic stream."""
    return RandomStream(12345, "tests")


@pytest.fixture(scope="session")
def small_lfr():
    """A small LFR graph with known-good community structure."""
    generator = LFR(
        seed=7,
        avg_degree=12,
        max_degree=30,
        min_community=10,
        max_community=40,
        mu=0.1,
    )
    return generator.run_with_labels(1200)


@pytest.fixture(scope="session")
def small_rmat():
    """A small R-MAT graph (scale 10)."""
    return RMat(seed=3).run_scale(10)


@pytest.fixture
def triangle_table():
    """The 3-cycle: simplest graph with a triangle."""
    return EdgeTable("tri", [0, 1, 2], [1, 2, 0], num_tail_nodes=3)


@pytest.fixture
def path_table():
    """A 4-node path 0-1-2-3."""
    return EdgeTable("path", [0, 1, 2], [1, 2, 3], num_tail_nodes=4)


@pytest.fixture
def grouped_ptable():
    """PT with 3 values of sizes 5/3/2 (ids 0..9)."""
    values = np.array([0] * 5 + [1] * 3 + [2] * 2, dtype=np.int64)
    return PropertyTable("test.value", values)


@pytest.fixture
def group_sizes_16():
    """The paper's truncated-geometric sizes for k=16, n=1600."""
    return TruncatedGeometric(0.4, 16).sizes(1600)
