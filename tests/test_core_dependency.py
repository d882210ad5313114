"""Tests for the dependency analysis (Section 4.2's running example)."""

from __future__ import annotations

import pytest

from repro.core import (
    Cardinality,
    DependencyError,
    EdgeType,
    GeneratorSpec,
    NodeType,
    PropertyDef,
    Schema,
    Task,
    TaskGraph,
    build_task_graph,
)
from repro.datasets import social_network_schema


class TestTaskGraph:
    def test_duplicate_task_rejected(self):
        graph = TaskGraph()
        graph.add(Task("a", "count", "A"))
        with pytest.raises(DependencyError, match="duplicate"):
            graph.add(Task("a", "count", "A"))

    def test_missing_reference_rejected(self):
        graph = TaskGraph()
        graph.add(Task("a", "count", "A", ["ghost"]))
        with pytest.raises(DependencyError, match="missing task"):
            graph.validate_references()

    def test_topological_order_respects_deps(self):
        graph = TaskGraph()
        graph.add(Task("c", "count", "C", ["b"]))
        graph.add(Task("b", "count", "B", ["a"]))
        graph.add(Task("a", "count", "A"))
        order = [t.task_id for t in graph.topological_order()]
        assert order.index("a") < order.index("b") < order.index("c")

    def test_cycle_detected_and_named(self):
        graph = TaskGraph()
        graph.add(Task("a", "count", "A", ["b"]))
        graph.add(Task("b", "count", "B", ["a"]))
        with pytest.raises(DependencyError, match="cycle"):
            graph.topological_order()

    def test_deterministic_order(self):
        graph = TaskGraph()
        for name in ("z", "m", "a"):
            graph.add(Task(name, "count", name.upper()))
        order = [t.task_id for t in graph.topological_order()]
        assert order == ["a", "m", "z"]

    def test_task_lookup(self):
        graph = TaskGraph()
        task = graph.add(Task("x", "count", "X"))
        assert graph.task("x") is task
        assert "x" in graph
        assert len(graph) == 1
        with pytest.raises(DependencyError):
            graph.task("nope")


class TestBuildTaskGraph:
    def test_running_example_plan(self):
        """The paper's exact scenario: #Messages inferred from the
        creates structure, which is sized by #Persons."""
        schema = social_network_schema(num_countries=8)
        graph = build_task_graph(schema, {"Person": 100})
        order = [t.task_id for t in graph.topological_order()]
        # The documented chain:
        assert order.index("count:Person") \
            < order.index("structure:creates") \
            < order.index("count:Message") \
            < order.index("property:Message.topic")
        # Name depends on country and sex.
        assert order.index("property:Person.country") \
            < order.index("property:Person.name")
        # Matching happens after structure and the correlated PT.
        assert order.index("property:Person.country") \
            < order.index("match:knows")
        # Edge properties run last for their edge.
        assert order.index("match:knows") \
            < order.index("property:knows.creationDate")

    def test_unsizeable_node_type_rejected(self):
        schema = Schema(
            node_types=[NodeType("Orphan")],
        )
        with pytest.raises(DependencyError, match="Orphan"):
            build_task_graph(schema, {})

    def test_edge_scale_sizes_tail_type(self):
        """Scaling by edge count sizes the tail type via get_num_nodes
        (the paper's alternative scale anchor)."""
        schema = Schema(
            node_types=[NodeType("Person")],
            edge_types=[
                EdgeType(
                    "knows",
                    "Person",
                    "Person",
                    structure=GeneratorSpec(
                        "erdos_renyi_m", {"edges_per_node": 4}
                    ),
                )
            ],
        )
        graph = build_task_graph(schema, {"knows": 4000})
        count_task = graph.task("count:Person")
        assert "structure:knows" in count_task.depends_on
        # The structure task itself must NOT depend on the count.
        structure_task = graph.task("structure:knows")
        assert "count:Person" not in structure_task.depends_on

    def test_one_to_many_head_count_from_structure(self):
        schema = social_network_schema(num_countries=8)
        graph = build_task_graph(schema, {"Person": 50})
        count_message = graph.task("count:Message")
        assert count_message.depends_on == ("structure:creates",)

    def test_edge_property_endpoint_dependencies(self):
        schema = social_network_schema(num_countries=8)
        graph = build_task_graph(schema, {"Person": 50})
        task = graph.task("property:knows.creationDate")
        assert "property:Person.creationDate" in task.depends_on
        assert "match:knows" in task.depends_on

    def test_all_tasks_created(self):
        schema = social_network_schema(num_countries=8)
        graph = build_task_graph(schema, {"Person": 10})
        ids = {t.task_id for t in graph.tasks()}
        # 2 counts + 5 Person props + 2 Message props + 2 structures
        # + 2 matches + 2 edge props = 15
        assert len(ids) == 15
        assert graph.task("match:knows").depends_on == (
            "count:Person", "property:Person.country", "structure:knows",
        )
