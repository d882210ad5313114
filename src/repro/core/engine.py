"""The generation engine: executes the task DAG (Figure 2).

For each edge type the engine generates node properties and graph
structure independently, then *matches* them (assigning node ids to
structure nodes) to reproduce the requested joint distributions, and
finally generates edge properties — exactly the pipeline of Figure 2.

The engine is deterministic: every task draws from a stream derived
from ``(root seed, task id)``, so regenerating any single table requires
only the seed and the schema — the distributed-generation story of the
paper.  :meth:`GraphGenerator.generate` is the one library entry into
the batch driver, :func:`~repro.core.sharded.run_batch`, in memory
over a RAM spool and out of core over a disk one (DESIGN.md §4).
"""

from __future__ import annotations

from .dependency import build_task_graph
from .run import RunOptions
from .sharded import run_batch

__all__ = ["GraphGenerator", "ShardedExecutor"]


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

    Out of core, the same call over a disk spool gives the same tables:

    >>> from repro.core import RunOptions
    >>> sharded = generator.generate(options=RunOptions(shard_rows=128))
    >>> all(sharded.edges(name).to_edge_table() == table
    ...     for name, table in graph.edge_tables.items())
    True
    >>> sharded.cleanup()
    """

    def __init__(self, schema, scale, seed=0):
        self.schema = schema.validate()
        self.scale = dict(scale)
        self.seed = int(seed)
        self.plan()  # reject a bad scale spec at construction

    def plan(self):
        """The ordered task list (exposed for inspection and tests)."""
        return build_task_graph(self.schema, self.scale).topological_order()

    def generate(self, sink=None, options=None):
        """Run all tasks and return the :class:`PropertyGraph`.

        ``options`` is a :class:`~repro.core.run.RunOptions` (``None``
        means the defaults, an in-memory run with resident tables);
        ``shard_rows``, ``memory_budget`` or ``resume`` make it out of
        core, over spooled tables the graph's ``cleanup()`` deletes.
        ``sink`` streams the graph to disk *while it is generated*: a
        :class:`~repro.io.streaming.GraphSink` receives each completed
        table in plan order and writes it in id-range chunks,
        producing bytes identical to exporting the finished graph, for
        any options.  A failing kernel raises its own exception.
        """
        return run_batch(self.schema, self.scale, self.seed,
                         RunOptions() if options is None else options, sink)


class ShardedExecutor(GraphGenerator):
    """``GraphGenerator`` with the out-of-core options as keywords.

    ``ShardedExecutor(schema, scale, seed, shard_rows=..., **options)
    .run(sink)`` is ``generate(sink, RunOptions(...))``, with the shard
    size resolved up front into :attr:`shard_rows` (from
    ``memory_budget``, or the default).  Only the benchmark harness
    still spells a run this way.
    """

    def __init__(self, schema, scale, seed=0, shard_rows=None,
                 memory_budget=None, **options):
        super().__init__(schema, scale, seed)
        self.shard_rows = RunOptions(
            shard_rows=shard_rows, memory_budget=memory_budget
        ).rows_per_shard
        self.options = RunOptions(shard_rows=self.shard_rows,
                                  memory_budget=memory_budget, **options)

    def run(self, sink=None):
        return self.generate(sink, self.options)
