"""Dependency analysis: schema -> task DAG (Figure 2, left box).

"The data generation process begins analyzing the schema described by
the user to reveal dependencies among the data to be generated. ...
from the dependencies analysis we get a dependency graph, which we
traverse to preserve the dependencies between the tasks."

The task graph is a plain string-keyed DAG.  Task ids follow the
conventions::

    count:<NodeType>              the instance count of a node type
    property:<Type>.<prop>        a node or edge property table
    structure:<EdgeType>          an edge table (pre-matching)
    match:<EdgeType>              the matching step of an edge type

Cycles (e.g. a node type whose count depends on an edge whose size
depends on that node type, with no anchor given by the scale spec) are
reported as :class:`DependencyError` with the cycle spelled out.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

from .schema import SchemaError
from ..properties.registry import create_property_generator
from ..structure.registry import create_generator

__all__ = ["DependencyError", "Task", "TaskGraph", "build_task_graph"]


class DependencyError(ValueError):
    """Raised for unsatisfiable or cyclic task dependencies."""


@dataclass
class Task:
    """One unit of generation work.

    Attributes
    ----------
    task_id:
        unique string id (see module docstring conventions).
    kind:
        "count" | "property" | "structure" | "match" | "edge_property".
    subject:
        the schema object name the task concerns.
    depends_on:
        ids of tasks that must run first.
    """

    task_id: str
    kind: str
    subject: str
    depends_on: tuple = ()

    def __post_init__(self):
        self.depends_on = tuple(self.depends_on)


class TaskGraph:
    """A DAG of :class:`Task` with topological scheduling."""

    def __init__(self):
        self._tasks = {}

    def add(self, task):
        if task.task_id in self._tasks:
            raise DependencyError(f"duplicate task {task.task_id!r}")
        self._tasks[task.task_id] = task
        return task

    def __contains__(self, task_id):
        return task_id in self._tasks

    def __len__(self):
        return len(self._tasks)

    def task(self, task_id):
        if task_id not in self._tasks:
            raise DependencyError(f"unknown task {task_id!r}")
        return self._tasks[task_id]

    def tasks(self):
        return list(self._tasks.values())

    def validate_references(self):
        """Every dependency must name an existing task."""
        for task in self._tasks.values():
            for dep in task.depends_on:
                if dep not in self._tasks:
                    raise DependencyError(
                        f"task {task.task_id!r} depends on missing task "
                        f"{dep!r}"
                    )

    def scheduling_state(self):
        """``(indegree, dependents)``: per task id, the number of
        dependencies and the ids that wait on it — what
        :meth:`topological_order` counts down."""
        self.validate_references()
        indegree = {tid: 0 for tid in self._tasks}
        dependents = {tid: [] for tid in self._tasks}
        for task in self._tasks.values():
            for dep in task.depends_on:
                indegree[task.task_id] += 1
                dependents[dep].append(task.task_id)
        return indegree, dependents

    def topological_order(self):
        """Kahn's algorithm; raises :class:`DependencyError` on cycles,
        naming one cycle explicitly."""
        indegree, dependents = self.scheduling_state()
        ready = sorted(
            tid for tid, deg in indegree.items() if deg == 0
        )
        order = []
        while ready:
            current = ready.pop(0)
            order.append(current)
            for nxt in dependents[current]:
                indegree[nxt] -= 1
                if indegree[nxt] == 0:
                    # Insert keeping deterministic (sorted) processing.
                    position = 0
                    while (
                        position < len(ready) and ready[position] < nxt
                    ):
                        position += 1
                    ready.insert(position, nxt)
        if len(order) != len(self._tasks):
            cycle = self._find_cycle()
            raise DependencyError(
                "task dependency cycle: " + " -> ".join(cycle)
            )
        return [self._tasks[tid] for tid in order]

    def _find_cycle(self):
        """Locate one cycle for the error message (DFS with colours)."""
        state = {}
        parent = {}

        def dfs(tid):
            state[tid] = 0
            for dep in self._tasks[tid].depends_on:
                if state.get(dep) == 0:
                    # Walk parents back to dep.
                    cycle = [dep, tid]
                    cursor = tid
                    while parent.get(cursor) is not None and cursor != dep:
                        cursor = parent[cursor]
                        cycle.append(cursor)
                    return cycle[::-1]
                if dep not in state:
                    parent[dep] = tid
                    found = dfs(dep)
                    if found:
                        return found
            state[tid] = 1
            return None

        for tid in self._tasks:
            if tid not in state:
                found = dfs(tid)
                if found:
                    return found
        return ["<unknown>"]


def build_task_graph(schema, scale):
    """Derive the task DAG from a schema and a scale specification.

    Parameters
    ----------
    schema:
        :class:`~repro.core.schema.Schema`.
    scale:
        dict mapping node type names to instance counts and/or edge type
        names to target edge counts.  Node counts not given must be
        inferable: the head type of a 1→* or 1→1 edge is sized by that
        edge's structure ("the number of edges creates ... determines
        the number of Messages").

    Returns
    -------
    TaskGraph

    Every front end plans through this function, so the scale spec and
    the generator bindings are validated here: a key naming no node or
    edge type, an anchor that is not a non-negative integer, or a
    generator its parameters cannot configure is a
    :class:`~repro.core.schema.SchemaError`, whichever engine runs.
    """
    unknown = [
        name
        for name in scale
        if name not in schema.node_types
        and name not in schema.edge_types
    ]
    if unknown:
        raise SchemaError(f"scale spec names unknown types: {unknown}")
    for name, value in scale.items():
        # bool is an int subclass; 2.0 is integral, 2.5 and inf are not
        if isinstance(value, bool) or not (
            isinstance(value, numbers.Integral)
            or isinstance(value, numbers.Real) and float(value).is_integer()
        ) or value < 0:
            raise SchemaError(
                f"scale anchor {name!r} must be a non-negative integer, "
                f"got {value!r}"
            )

    _check_generators(schema)
    graph = TaskGraph()

    # Which node types get their count from the scale spec, and which
    # from an edge structure?
    count_source = {}
    for name in schema.node_types:
        if name in scale:
            count_source[name] = ("scale", None)
    for edge in schema.edge_types.values():
        if edge.is_strict and edge.head_type not in count_source:
            count_source[edge.head_type] = ("structure", edge.name)
    # An edge-count anchor sizes its tail type through get_num_nodes
    # ("use the result to size the graph structure and the number of
    # Persons").
    for edge in schema.edge_types.values():
        if edge.name in scale and edge.tail_type not in count_source:
            count_source[edge.tail_type] = ("structure", edge.name)
    missing = [
        name for name in schema.node_types if name not in count_source
    ]
    if missing:
        raise DependencyError(
            f"cannot infer instance counts for node types {missing}; "
            "add them to the scale spec or size them via a 1->* edge"
        )

    # Count tasks.
    for name, (source, edge_name) in count_source.items():
        deps = []
        if source == "structure":
            deps.append(f"structure:{edge_name}")
        graph.add(
            Task(f"count:{name}", "count", name, deps)
        )

    # Node property tasks.
    for node in schema.node_types.values():
        for prop in node.properties:
            deps = [f"count:{node.name}"]
            deps.extend(
                f"property:{node.name}.{dep}" for dep in prop.depends_on
            )
            graph.add(
                Task(
                    f"property:{node.name}.{prop.name}",
                    "property",
                    f"{node.name}.{prop.name}",
                    deps,
                )
            )

    # Structure tasks: need the tail type count unless the edge itself
    # is scaled by edge count.
    for edge in schema.edge_types.values():
        deps = []
        if edge.name not in scale:
            deps.append(f"count:{edge.tail_type}")
        graph.add(
            Task(f"structure:{edge.name}", "structure", edge.name, deps)
        )

    # Match tasks: structure + the correlated property tables + head
    # count (to know the full id space being matched).
    for edge in schema.edge_types.values():
        deps = [f"structure:{edge.name}", f"count:{edge.tail_type}",
                f"count:{edge.head_type}"]
        if edge.correlation is not None:
            corr = edge.correlation
            deps.append(
                f"property:{edge.tail_type}.{corr.tail_property}"
            )
            if corr.head_property is not None:
                deps.append(
                    f"property:{edge.head_type}.{corr.head_property}"
                )
        graph.add(
            Task(
                f"match:{edge.name}",
                "match",
                edge.name,
                sorted(set(deps)),
            )
        )

    # Edge property tasks: run after matching (endpoint references are
    # resolved against final node ids) and after any referenced node
    # property or sibling edge property.
    for edge in schema.edge_types.values():
        for prop in edge.properties:
            deps = [f"match:{edge.name}"]
            for dep in prop.depends_on:
                _, owner, name = edge.dependency_ref(dep)
                deps.append(f"property:{owner}.{name}")
            graph.add(
                Task(
                    f"property:{edge.name}.{prop.name}",
                    "edge_property",
                    f"{edge.name}.{prop.name}",
                    sorted(set(deps)),
                )
            )

    graph.validate_references()
    return graph


def _check_generators(schema):
    """Build every generator binding once, before any task runs, so a
    parameter its generator rejects is a :class:`SchemaError` naming
    the property or edge type."""
    edges = list(schema.edge_types.values())
    bindings = [(edge.name, create_generator, edge.structure)
                for edge in edges]
    for owner in [*schema.node_types.values(), *edges]:
        bindings += [(f"{owner.name}.{prop.name}", create_property_generator,
                      prop.generator) for prop in owner.properties]
    for where, create, spec in bindings:
        try:
            if spec is not None:
                create(spec.name, **spec.params)
        except (ValueError, TypeError) as exc:
            raise SchemaError(f"{where}: {spec.name}: {exc}") from None
