"""The generation engine: executes the task DAG (Figure 2).

For each edge type the engine generates node properties and graph
structure independently, then *matches* them (assigning node ids to
structure nodes) to reproduce the requested joint distributions, and
finally generates edge properties — exactly the pipeline of Figure 2.

The engine is deterministic: every task draws from a stream derived
from ``(root seed, task id)``, so regenerating any single table requires
only the seed and the schema — the distributed-generation story of the
paper.  What each task computes is decided by
:func:`~repro.core.tasks.apply_task` and the plan is walked by
:func:`~repro.core.tasks.walk`, as out of core; this module is only
the *resident* store under them, which is why ``generate(workers=k)``
is bit-identical to ``generate()`` for every ``k`` (see DESIGN.md).
"""

from __future__ import annotations

import numpy as np

from ..tables import PropertyTable
from ..tables.ranged import chunk_bounds
from . import run
from .dependency import build_task_graph
from .procpool import ShardPool
from .result import PropertyGraph
from .tasks import (
    ResidentStore,
    apply_task,
    dep_slice,
    property_shard_values,
    walk,
)

__all__ = ["GraphGenerator"]


class _PooledStore(ResidentStore):
    """The resident store over a thread pool: a property table of
    several shards, when there are workers to share them, is filled
    one kernel call per shard and concatenated in range order."""

    def __init__(self, pool):
        self._pool = pool

    def properties(self, name, spec, count, deps, task_id, seed):
        bounds = list(chunk_bounds(name, count, run.DEFAULT_SHARD_ROWS))
        if self._pool.workers < 2 or len(bounds) < 2:
            return super().properties(name, spec, count, deps, task_id, seed)
        parts = self._pool.ordered_map(property_shard_values, (
            (spec, task_id, seed, lo, hi,
             [dep_slice(dep, lo, hi) for dep in deps])
            for lo, hi in bounds
        ))
        return PropertyTable(name, np.concatenate(list(parts)))


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
        runs every task as one kernel call, ``> 1`` fills property
        tables longer than one shard across a thread pool.

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
        self.workers = run.RunOptions(workers=int(workers)).workers
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
        only generates the id-range shards of large property tables
        concurrently.

        ``sink`` streams the graph to disk *while it is generated*: a
        :class:`~repro.io.streaming.GraphSink` receives each completed
        table in plan order and writes it in id-range chunks,
        producing bytes identical to exporting the finished graph (and
        identical for every worker count).
        """
        if workers is None:
            workers = self.workers
        else:
            workers = run.RunOptions(workers=int(workers)).workers
        result = PropertyGraph(self.schema, self.seed)
        structures = {}  # edge -> ET with structure ids (pre-matching)
        # Threads, not processes: the tables are resident, so shards
        # read their dependencies and land their values unpickled.
        with ShardPool("thread", workers) as pool:
            store = _PooledStore(pool)
            walk(
                self.plan(),
                lambda task: apply_task(
                    task, self.schema, self.scale, self.seed,
                    result, structures, store,
                ),
                result, sink,
            )
        return result
