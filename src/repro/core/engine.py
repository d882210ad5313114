"""The generation engine: executes the task DAG (Figure 2).

For each edge type the engine generates node properties and graph
structure independently, then *matches* them (assigning node ids to
structure nodes) to reproduce the requested joint distributions, and
finally generates edge properties — exactly the pipeline of Figure 2.

The engine is deterministic: every task draws from a stream derived
from ``(root seed, task id)``, so regenerating any single table requires
only the seed and the schema — the distributed-generation story of the
paper.  The task bodies themselves live in :mod:`repro.core.tasks` as
pure functions; the serial path below and the shard-parallel
:mod:`repro.core.executor` are two schedulers over the same
implementations, which is why ``generate(workers=k)`` is bit-identical
to ``generate()`` for every ``k`` (see DESIGN.md).
"""

from __future__ import annotations

from .dependency import build_task_graph
from .result import PropertyGraph
from .tasks import apply_task, export_task_output

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
    workers:
        default worker count for :meth:`generate`; ``1`` (the default)
        runs the serial in-process path, ``> 1`` dispatches the task
        DAG to a process pool via
        :class:`~repro.core.executor.ParallelExecutor`.

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

    def __init__(self, schema, scale, seed=0, workers=1):
        self.schema = schema.validate()
        self.scale = dict(scale)
        self.seed = int(seed)
        self.workers = int(workers)
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        self.plan()  # reject a bad scale spec at construction

    # -- planning ------------------------------------------------------------

    def plan(self):
        """The ordered task list (exposed for inspection and tests)."""
        graph = build_task_graph(self.schema, self.scale)
        return graph.topological_order()

    # -- execution -------------------------------------------------------------

    def generate(self, workers=None, sink=None):
        """Run all tasks and return the :class:`PropertyGraph`.

        ``workers`` overrides the constructor default for this call.
        Any worker count produces bit-identical output; ``workers > 1``
        simply runs independent tasks (and id-range shards of large
        property tables) concurrently.

        ``sink`` streams the graph to disk *while it is generated*: a
        :class:`~repro.io.streaming.GraphSink` receives each completed
        table in serial plan order and writes it in id-range chunks,
        producing bytes identical to exporting the finished graph (and
        identical for every worker count).
        """
        workers = self.workers if workers is None else int(workers)
        if workers > 1:
            from .executor import ParallelExecutor

            return ParallelExecutor(
                self.schema, self.scale, self.seed, workers=workers
            ).run(sink=sink)
        result = PropertyGraph(self.schema, self.seed)
        structures = {}  # edge -> ET with structure ids (pre-matching)
        if sink is not None:
            sink.begin(result)
        for task in self.plan():
            apply_task(
                task, self.schema, self.scale, self.seed,
                result, structures,
            )
            export_task_output(task, sink)
        if sink is not None:
            sink.finish()
        return result
