"""Shard-parallel execution of the task DAG (the distributed engine).

:func:`~repro.core.tasks.property_shard_values` carries the paper's
shared-nothing claim for a *single* property table (any worker
regenerates any id range from the seed); this module generalises it to
the whole Figure-2 pipeline.  The :class:`ParallelExecutor` walks the
task graph of :func:`~repro.core.dependency.build_task_graph`
dynamically:
every task whose dependencies have finished is dispatched to a
``concurrent.futures`` pool, and large ``property`` / ``edge_property``
tasks are additionally split into contiguous id-range *shards* that
generate concurrently — the exact work decomposition a cluster
deployment would use, with the pool standing in for remote workers
(DESIGN.md records the substitution).

Bit-identity with the serial engine is structural, not incidental:

* kernels re-derive their stream from ``(root seed, task id)``, so a
  worker process computes exactly what the serial loop would;
* shard outputs are concatenated in id order, which equals single-shot
  generation because ``run_many`` is pure per id;
* the final :class:`~repro.core.result.PropertyGraph` is re-assembled
  in serial plan order, so even dict iteration order matches.

The coordinator keeps all integration (and the O(1) ``count`` tasks)
in-process; only kernel calls cross the pool boundary, with picklable
payloads (generator specs, numpy arrays, schema dataclasses).
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)

import numpy as np

from ..properties.registry import create_property_generator
from .dependency import DependencyError, build_task_graph
from .engine import GraphGenerator
from .result import PropertyGraph
from .tasks import (
    dep_slice,
    export_task_output,
    generate_structure,
    match_edge,
    match_inputs,
    match_prepare,
    property_inputs,
    property_shard_values,
    resolve_count,
    store_task_output,
    structure_inputs,
)

__all__ = ["ParallelExecutor", "execute_parallel", "DEFAULT_SHARD_SIZE"]

#: Minimum rows per property shard; tables smaller than this run as a
#: single kernel call (sharding overhead would dominate).
DEFAULT_SHARD_SIZE = 65_536

_BACKENDS = ("process", "thread")


def shard_ranges(count, num_shards):
    """Split ``range(count)`` into ``num_shards`` contiguous ranges.

    Returns a list of ``(start, stop)``; shards differ in size by at
    most one.  Empty shards are allowed when ``num_shards > count``.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    base = count // num_shards
    extra = count % num_shards
    ranges = []
    start = 0
    for shard in range(num_shards):
        size = base + (1 if shard < extra else 0)
        ranges.append((start, start + size))
        start += size
    return ranges


class ParallelExecutor:
    """Schedules the task DAG over a worker pool.

    Parameters
    ----------
    schema, scale, seed:
        as for :class:`~repro.core.engine.GraphGenerator`.
    workers:
        pool size; defaults to ``os.cpu_count()``.  One worker *is*
        the serial engine: the run is handed to
        :class:`~repro.core.engine.GraphGenerator`.
    shard_size:
        target rows per property-table shard.  A table of ``n`` rows is
        split into ``min(workers, ceil(n / shard_size))`` shards.
    backend:
        ``"process"`` (default) uses a :class:`ProcessPoolExecutor` —
        real parallelism, requires picklable generator parameters.
        ``"thread"`` avoids pickling (useful for unpicklable schema
        environments or fork-restricted hosts).
    """

    def __init__(
        self,
        schema,
        scale,
        seed=0,
        workers=None,
        shard_size=DEFAULT_SHARD_SIZE,
        backend="process",
    ):
        self.schema = schema.validate()
        self.scale = dict(scale)
        self.seed = int(seed)
        if workers is None:
            workers = os.cpu_count() or 1
        self.workers = int(workers)
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        self.shard_size = int(shard_size)
        if self.shard_size < 1:
            raise ValueError("shard_size must be >= 1")
        if backend not in _BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {_BACKENDS}"
            )
        self.backend = backend

    # -- public entry ---------------------------------------------------------

    def run(self, sink=None):
        """Execute all tasks; returns the :class:`PropertyGraph`.

        ``sink`` (a :class:`~repro.io.streaming.GraphSink`) streams
        completed tables to disk *during* execution: an export cursor
        walks the serial plan order and announces each task as soon as
        it and every plan-order predecessor have finished, so shard
        results flow straight into chunked files without waiting for
        the whole DAG — and the bytes equal a post-hoc export of the
        serial engine's graph, for any worker count.
        """
        if self.workers == 1:
            return GraphGenerator(
                self.schema, self.scale, self.seed
            ).generate(sink=sink)
        graph = build_task_graph(self.schema, self.scale)
        order = graph.topological_order()  # validates + cycle check
        result = PropertyGraph(self.schema, self.seed)
        structures = {}
        if sink is not None:
            sink.begin(result)
        pool = self._make_pool()
        try:
            self._run_pooled(
                pool, graph, order, result, structures, sink
            )
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
        if sink is not None:
            sink.finish()
        return self._reassemble(order, result)

    # -- scheduling -----------------------------------------------------------

    def _make_pool(self):
        if self.backend == "thread":
            return ThreadPoolExecutor(max_workers=self.workers)
        return ProcessPoolExecutor(max_workers=self.workers)

    def _plan_shards(self, count):
        """Contiguous id ranges for one property task."""
        if count <= 0:
            return [(0, 0)]
        num_shards = min(
            self.workers, -(-count // self.shard_size)
        )
        return shard_ranges(count, max(1, num_shards))

    def _shard_buffer(self, spec, count):
        """Whole-table output buffer for a sharded property task.

        Only the thread backend shares memory with its workers, so
        only there can shards write ``out=`` slices of one
        preallocated array — the allocation-free assembly path (no
        per-shard arrays, no ``np.concatenate`` copy).  Process
        workers return pickled copies regardless, and the buffer's
        dtype comes from the generator's ``output_dtype``, which the
        empty-``run_many`` contract already requires to be accurate.
        """
        if self.backend != "thread":
            return None
        generator = create_property_generator(spec.name, **spec.params)
        if not getattr(generator, "supports_out", False):
            # Generators without the out= contract (third-party PGs,
            # formula) may return a dtype their output_dtype doesn't
            # declare; keep those on the concatenate path so the
            # assembled dtype matches single-shot generation.
            return None
        return np.empty(count, dtype=generator.output_dtype())

    def _run_pooled(self, pool, graph, order, result, structures,
                    sink=None):
        position = {task.task_id: i for i, task in enumerate(order)}
        indegree, dependents = graph.scheduling_state()
        unfinished = {task.task_id for task in order}
        ready = deque(
            sorted(
                (tid for tid, deg in indegree.items() if deg == 0),
                key=position.__getitem__,
            )
        )
        pending = {}  # future -> (task, shard_index | None)
        shard_parts = {}  # task_id -> list of shard outputs
        shard_missing = {}  # task_id -> outstanding shard count
        shard_buffers = {}  # task_id -> preallocated whole-table array
        export_cursor = 0  # next plan-order task to announce to sink

        def advance_exports():
            # Completion order is timing-dependent; the cursor restores
            # the serial plan order the sink protocol requires.
            nonlocal export_cursor
            if sink is None:
                return
            while export_cursor < len(order):
                task = order[export_cursor]
                if task.task_id in unfinished:
                    return
                export_task_output(task, sink)
                export_cursor += 1

        def complete(task, output):
            store_task_output(task, result, structures, output)
            unfinished.discard(task.task_id)
            advance_exports()
            released = []
            for dep_id in dependents[task.task_id]:
                indegree[dep_id] -= 1
                if indegree[dep_id] == 0:
                    released.append(dep_id)
            ready.extend(sorted(released, key=position.__getitem__))

        def launch(task):
            if task.kind == "count":
                # O(1); not worth a pool round-trip.
                complete(
                    task,
                    resolve_count(
                        self.schema, self.scale, task, structures
                    ),
                )
                return
            if task.kind in ("property", "edge_property"):
                spec, count, deps = property_inputs(
                    self.schema, task, result
                )
                shards = self._plan_shards(count)
                buffer = None
                if len(shards) > 1:
                    shard_missing[task.task_id] = len(shards)
                    buffer = self._shard_buffer(spec, count)
                    if buffer is None:
                        shard_parts[task.task_id] = [None] * len(shards)
                    else:
                        shard_buffers[task.task_id] = buffer
                for index, (start, stop) in enumerate(shards):
                    slices = [dep_slice(dep, start, stop) for dep in deps]
                    future = pool.submit(
                        property_shard_values,
                        spec, task.task_id, self.seed,
                        start, stop, slices,
                        None if buffer is None else buffer[start:stop],
                    )
                    pending[future] = (
                        task, index if len(shards) > 1 else None
                    )
                return
            if task.kind == "structure":
                spec, sg_seed, n = structure_inputs(
                    self.schema, self.scale, self.seed, task,
                    result.node_counts,
                )
                future = pool.submit(generate_structure, spec, sg_seed, n)
                pending[future] = (task, None)
                return
            if task.kind == "match_prepare":
                # Pure function of (seed, edge, structure): runs in a
                # worker as soon as the structure lands, overlapping
                # stream precomputation (CSR, arrival permutation,
                # counts tables) with the rest of the DAG.
                future = pool.submit(
                    match_prepare,
                    self.seed, task.subject, structures[task.subject],
                )
                pending[future] = (task, None)
                return
            if task.kind == "match":
                future = pool.submit(
                    match_edge,
                    seed=self.seed,
                    task_id=task.task_id,
                    **match_inputs(self.schema, task, result, structures),
                )
                pending[future] = (task, None)
                return
            # pragma: no cover - guarded by build_task_graph
            raise DependencyError(f"unknown task kind {task.kind!r}")

        while unfinished:
            while ready:
                launch(graph.task(ready.popleft()))
            if not unfinished:
                break
            if not pending:  # pragma: no cover - cycles caught earlier
                stuck = sorted(unfinished)
                raise DependencyError(
                    f"executor stalled with unfinished tasks {stuck}"
                )
            done, _ = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                task, shard_index = pending.pop(future)
                value = future.result()  # re-raises worker failures
                if shard_index is None:
                    complete(task, value)
                    continue
                shard_missing[task.task_id] -= 1
                if task.task_id in shard_buffers:
                    # Thread backend: the shard wrote its slice of the
                    # shared whole-table buffer; nothing to merge.
                    if shard_missing[task.task_id] == 0:
                        del shard_missing[task.task_id]
                        complete(task, shard_buffers.pop(task.task_id))
                    continue
                parts = shard_parts[task.task_id]
                parts[shard_index] = value
                if shard_missing[task.task_id] == 0:
                    del shard_missing[task.task_id]
                    del shard_parts[task.task_id]
                    complete(task, np.concatenate(parts))

    # -- assembly -------------------------------------------------------------

    def _reassemble(self, order, result):
        """Re-insert outputs in serial plan order.

        Completion order depends on worker timing, so the scratch
        result's dicts are populated out of order; the serial engine
        inserts in topological order.  Rebuilding makes even dict
        iteration order — and hence CSV/JSONL export order — identical
        to the serial path.
        """
        final = PropertyGraph(self.schema, self.seed)
        for task in order:
            if task.kind == "count":
                final.node_counts[task.subject] = (
                    result.node_counts[task.subject]
                )
            elif task.kind == "property":
                final.node_properties[task.subject] = (
                    result.node_properties[task.subject]
                )
            elif task.kind == "match":
                final.edge_tables[task.subject] = (
                    result.edge_tables[task.subject]
                )
                final.match_results[task.subject] = (
                    result.match_results[task.subject]
                )
            elif task.kind == "edge_property":
                final.edge_properties[task.subject] = (
                    result.edge_properties[task.subject]
                )
        return final


def execute_parallel(schema, scale, seed=0, sink=None, **kwargs):
    """One-call form: ``execute_parallel(schema, scale, seed, workers=4)``.

    Accepts the same keyword arguments as :class:`ParallelExecutor`
    (plus ``sink`` for streaming export) and returns the generated
    :class:`PropertyGraph`.
    """
    return ParallelExecutor(schema, scale, seed, **kwargs).run(sink=sink)
