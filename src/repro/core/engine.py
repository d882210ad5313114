"""The generation engine: executes the task DAG (Figure 2).

For each edge type the engine generates node properties and graph
structure independently, then *matches* them (assigning node ids to
structure nodes) to reproduce the requested joint distributions, and
finally generates edge properties — exactly the pipeline of Figure 2.

The engine is deterministic: every task draws from a stream derived
from ``(root seed, task id)``, so regenerating any single table requires
only the seed and the schema — the distributed-generation story of the
paper.  :meth:`GraphGenerator.generate` runs the one batch driver,
:func:`~repro.core.sharded.run_batch`, over a RAM spool (DESIGN.md).
"""

from __future__ import annotations

from .dependency import build_task_graph
from .run import RunOptions
from .sharded import run_batch

__all__ = ["GraphGenerator"]


class GraphGenerator:
    """Generates property graphs from a schema and a scale spec.

    Parameters
    ----------
    schema:
        :class:`~repro.core.schema.Schema`.
    scale:
        dict of node type -> count and/or edge type -> edge count (at
        least one anchor; everything else is inferred, Section 4.2).
    seed:
        root seed; all randomness derives from it.

    Examples
    --------
    >>> from repro.datasets import social_network_schema
    >>> schema = social_network_schema(num_countries=8)
    >>> generator = GraphGenerator(schema, {"Person": 500}, seed=7)
    >>> graph = generator.generate()
    >>> graph.num_nodes("Person")
    500
    >>> graph.num_nodes("Message") == graph.num_edges("creates")
    True
    """

    def __init__(self, schema, scale, seed=0):
        self.schema = schema.validate()
        self.scale = dict(scale)
        self.seed = int(seed)
        self.plan()  # reject a bad scale spec at construction

    def plan(self):
        """The ordered task list (exposed for inspection and tests)."""
        return build_task_graph(self.schema, self.scale).topological_order()

    def generate(self, sink=None):
        """Run all tasks and return the graph (resident tables).

        ``sink`` streams the graph to disk *while it is generated*: a
        :class:`~repro.io.streaming.GraphSink` receives each completed
        table in plan order and writes it in id-range chunks,
        producing bytes identical to exporting the finished graph.
        A failing kernel raises its own exception.
        """
        return run_batch(self.schema, self.scale, self.seed, RunOptions(),
                         sink)
