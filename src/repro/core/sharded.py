"""Sharded executor: memory-bounded, out-of-core generation.

The in-memory engine materialises every table in RAM, so graph size is
capped by memory even though export already streams.  This module walks
the *same* plan (:func:`~repro.core.tasks.walk`) through the same task
body (:func:`~repro.core.tasks.apply_task`) with every table spooled to
disk in id-range shards (:class:`~repro.io.spool.TableSpool`): the
full pipeline — structure chunk → match → properties → sink — touches
at most a few ``shard_rows``-sized arrays at a time, which is what
unlocks billion-edge generation on commodity boxes.

Byte-identity.  Outputs are bit-identical to the in-memory path for
any shard size and worker count, by construction rather than by luck:
``apply_task`` decides what every task computes, and this module's
store only decides how the rows are kept — every table is written
shard by shard through the one ``read_range`` table protocol
(:mod:`repro.tables.ranged`): range-pure property kernels, chunkable
structures re-emitted from the seed
(:class:`~repro.structure.base.EdgeChunkStream`), and the final edge
rows of every matching.  The run's global state — the pre-matching
structures' spilled state and the matching maps — is kept by the
spool's spill (:class:`~repro.io.spool.SpoolSpill`): the genuinely
global stages (sequential structure generators, correlated SBM-Part
matching) materialise transiently, spill their result and free it.
Sinks read the spooled tables through the unchanged ``begin``/
``on_table``/``finish`` protocol in serial plan order, so every format
(gzip included) produces identical bytes.

Concurrency.  Every per-shard unit — property kernel, structure chunk
emission + relabel — goes through one
:class:`~repro.core.procpool.ShardPool` with a bounded in-flight window
(no lock-step waves).  Whatever workers the pool runs read every input
from the spool and write part files into it, and the parent acks
shards in shard order and formats the export — so the output is
byte-identical for any pool, worker count and shard size, again by
construction.  A worker killed mid-shard raises
:class:`~repro.core.procpool.ShardedError` and the owned spool is
removed.

Peak traced allocation is bounded by ``C · shard_rows`` plus the
documented O(nodes) matching-permutation term — pinned by
``tests/test_sharded_memory.py`` and, at ~10M edges under a 256 MB
budget, by ``benchmarks/bench_scale.py``.
"""

from __future__ import annotations

import tempfile
import warnings
from pathlib import Path

from ..io.spool import TableSpool
from . import faults as _faults
from .checkpoint import run_fingerprint
from .dependency import build_task_graph
from .procpool import ShardPool, ShardedError
from .result import PropertyGraph
from .run import BYTES_PER_PERMUTED_NODE, RunOptions, parse_memory_budget
from .structures import adopted, metadata
from .tasks import (
    Store,
    apply_task,
    dep_slice,
    is_correlated,
    property_shard_values,
    walk,
)

__all__ = [
    "ShardedError",
    "ShardedExecutor",
    "ShardedResult",
]

# -- per-shard jobs (module-level: picklable for any pool) --------------------


def _property_shard_part(spool, key, index, bound, spec, task_id, seed,
                         deps):
    """One property shard: kernel to spool part file (any worker)."""
    _faults.fire("property", index)
    _faults.fire("shard", index)
    start, stop = bound
    values = property_shard_values(
        spec, task_id, seed, start, stop,
        [dep_slice(dep, start, stop) for dep in deps],
    )
    return spool.save_property_part(index, key, values)


def _edge_shard_part(spool, key, index, bound, rows):
    """One final edge shard — chunk emission + relabel, or a page of
    a correlated matching's table — to the spool (any worker)."""
    _faults.fire("match", index)
    _faults.fire("shard", index)
    return spool.save_edge_part(index, key, *rows.read_range(*bound))


def _warn_unbounded_matching(edge, structure, id_space, budget):
    """Warn that ``edge``'s matching, a global stage, may exceed the
    memory ``budget`` (bytes): always when correlated, else when its
    permuted nodes at ``BYTES_PER_PERMUTED_NODE`` each exceed it."""
    if is_correlated(edge):
        estimate = (
            f"a correlated (SBM-Part) matching holds its whole "
            f"{len(structure)}-edge structure in memory "
            f"(>= {16 * len(structure)} B of int64 endpoints)"
        )
    else:
        nodes = id_space[0]
        if not (edge.is_monopartite or edge.is_strict):
            nodes += id_space[1]
        if BYTES_PER_PERMUTED_NODE * nodes <= budget:
            return
        estimate = (
            f"its permutation matching of {nodes} nodes needs about "
            f"{BYTES_PER_PERMUTED_NODE * nodes} B"
        )
    warnings.warn(
        f"memory budget of {budget} B does not bound edge "
        f"{edge.name!r}: {estimate}",
        RuntimeWarning, stacklevel=2,
    )


# -- the store ----------------------------------------------------------------


class _SpooledStore(Store):
    """Every table as id-range shard files in a :class:`TableSpool`,
    filled through the pool; acked shards and recorded structures are
    adopted on resume; a matching the memory ``budget`` cannot bound
    is warned about before it runs."""

    def __init__(self, spool, pool, schema, budget):
        self.spool = spool
        self.pool = pool
        self._schema = schema
        self._budget = None if budget is None else parse_memory_budget(budget)
        self._stages = {"count": 0, "structure": 0}

    def fire(self, site):
        # Counts are never checkpointed: recomputing them on resume is
        # cheap and cross-checks the purity argument.
        index = self._stages[site]
        self._stages[site] = index + 1
        _faults.fire(site, index)

    def _run_shards(self, key, job, bounds, args):
        """Fill one table's shards ``bounds`` in the spool.

        Shards flow through the pool's bounded in-flight window:
        workers run ``job(spool, key, index, bound, *args)`` — a pure
        kernel that saves its part files — and the parent acks the
        returned metadata into the spool's catalog in shard order, so
        scheduling cannot change the output.  On resume the catalog's
        verified prefix is already there and only the rest is run.
        """
        spool = self.spool
        skip = spool.verified_prefix(key)
        jobs = (
            (spool, key, index, bounds[index], *args)
            for index in range(skip, len(bounds))
        )
        for index, meta in enumerate(self.pool.ordered_map(job, jobs), skip):
            spool.ack(key, index, meta)

    def structure(self, name, open_handle):
        spool = self.spool
        # Resume: a completed edge table is adopted whole from the
        # spool, so its structure is not re-generated — a metadata-only
        # handle keeps derived counts resolvable.  Its parts are
        # re-verified *here* (a torn one truncates and unseals the
        # table): found at the match task, it would need the structure
        # this skips.
        if spool.sealed(name) is not None:
            spool.verified_prefix(name)
        meta = spool.structure_meta(name)
        if spool.sealed(name) is not None and meta is not None:
            return adopted(meta)
        self.fire("structure")
        handle = open_handle(
            spool.shard_rows, spool.spiller(f"structure.{name}")
        )
        spool.record_structure(name, metadata(handle))
        return handle

    def properties(self, name, spec, count, deps, task_id, seed):
        self._run_shards(
            name, _property_shard_part, self.spool.shard_bounds(count),
            (spec, task_id, seed, deps),
        )
        return self.spool.finish_property(name)

    def edges(self, name, structure, id_space, build):
        spool = self.spool
        sealed = spool.sealed(name)
        if sealed is not None:
            # Resume: adopt the completed table from the spool and skip
            # matching (its parts verified at the structure task).  The
            # match-result diagnostic is not reconstructed — it
            # describes the matching *work*, which did not run.
            return spool.finish_edge(name, **sealed), None
        if self._budget is not None and len(structure):
            _warn_unbounded_matching(
                self._schema.edge_type(name), structure, id_space,
                self._budget,
            )
        # The matching state — permutation maps (the O(nodes) term of
        # the memory bound) or a correlated matching's final table —
        # is spilled once; workers re-emit and relabel their chunks
        # from its pages.
        rows, match = build(spool.spiller(f"match.{name}"))
        self._run_shards(
            name, _edge_shard_part,
            spool.shard_bounds(len(rows)) if len(rows) else [], (rows,),
        )
        spool.drop_scratch(f"structure.{name}")
        spool.drop_scratch(f"match.{name}")
        # Relabelling preserves the structure's name and direction, so
        # the spooled table carries them too — EdgeTable.__eq__
        # compares the name.
        return spool.finish_edge(
            name, *id_space, structure.directed, name=structure.name
        ), match


# -- result -------------------------------------------------------------------


class ShardedResult(PropertyGraph):
    """A :class:`PropertyGraph` whose tables live in a disk spool.

    Tables are :class:`~repro.io.spool.SpooledPropertyTable` /
    :class:`~repro.io.spool.SpooledEdgeTable` — same streaming
    interface, bounded memory.  The inherited :meth:`materialize`
    loads everything into a plain :class:`PropertyGraph` for global
    consumers (validation, joint diagnostics); :meth:`cleanup` removes
    the spool directory once the result is no longer needed.
    """

    def __init__(self, schema, seed, spool):
        super().__init__(schema, seed)
        self.spool = spool

    def cleanup(self):
        """Delete the spool directory (invalidates the tables)."""
        self.spool.cleanup()


# -- executor ------------------------------------------------------------------


class ShardedExecutor:
    """Run the generation DAG per id-range shard, memory-bounded.

    Parameters
    ----------
    schema, scale, seed:
        as for the serial engine.
    shard_rows:
        rows per shard — the pipeline's memory unit.
    memory_budget:
        alternative to ``shard_rows``: bytes (int or ``"512MB"``-style
        string) divided by
        :data:`~repro.core.run.BYTES_PER_SHARD_ROW`.  A matching is a
        global stage the budget cannot bound; the run emits a
        :class:`RuntimeWarning` for each one that may exceed it.
    workers:
        per-shard concurrency; the pool keeps a bounded in-flight
        window of ``workers + 1`` shards, so peak memory scales with
        ``workers × shard_rows``.  Output is identical for any worker
        count.
    backend:
        the :class:`~repro.core.procpool.ShardPool` backend,
        ``"thread"`` (default) or ``"process"``; it changes where the
        shard kernels run, never what the run keeps or writes.
    spool_dir:
        spool location (a temporary directory by default).  Resumable
        runs must name one explicitly: an owned temporary spool is
        removed when a stage fails, an explicit one is preserved for
        inspection and ``resume``.
    retries:
        per-shard retry budget.  Shard jobs are pure functions of
        their arguments, so a failed shard (worker exception or a
        worker killed mid-shard) is re-run — respawning the process
        pool when it broke — with exponential backoff; ``0`` keeps the
        fail-fast behaviour.
    resume:
        continue a previous run from the ``checkpoint.jsonl`` catalog
        in ``spool_dir``: package version and run fingerprint are
        validated, acked shard parts are re-verified (size + CRC) and
        skipped, and the sink re-emits every table from the spool so
        the export is byte-identical to an uninterrupted run.
    faults:
        a :class:`~repro.core.faults.FaultPlan` (or spec string) to
        consult at stage boundaries; ``None`` falls back to the
        ``REPRO_FAULTS`` environment variable.  Test/chaos harness
        hook — production runs leave it unset.
    """

    def __init__(self, schema, scale, seed=0, shard_rows=None,
                 memory_budget=None, workers=1, backend="thread",
                 spool_dir=None, retries=0, backoff=0.1, resume=False,
                 faults=None):
        self.schema = schema.validate()
        self.scale = dict(scale)
        self.seed = int(seed)
        # Naming this class *is* choosing the out-of-core run, so the
        # options carry the resolved shard size whatever was passed.
        self.shard_rows = RunOptions(
            shard_rows=shard_rows, memory_budget=memory_budget
        ).rows_per_shard
        self.options = RunOptions(
            workers=workers, backend=backend, shard_rows=self.shard_rows,
            memory_budget=memory_budget, spool_dir=spool_dir,
            resume=bool(resume), retries=retries, faults=faults,
        )
        self.backoff = float(backoff)

    def run(self, sink=None):
        """Execute all tasks; returns a :class:`ShardedResult`.

        ``sink`` streams the graph to disk during generation exactly as
        with the in-memory engine: same plan order, same chunk
        geometry, byte-identical files.
        """
        options = self.options
        order = build_task_graph(
            self.schema, self.scale
        ).topological_order()
        spool_dir = options.spool_dir
        owns_spool = spool_dir is None
        if owns_spool:
            spool_dir = tempfile.mkdtemp(prefix="repro-spool-")
        spool = TableSpool(Path(spool_dir), self.shard_rows)
        result = ShardedResult(self.schema, self.seed, spool)
        structures = {}
        spool.open_catalog(
            run_fingerprint(
                self.schema, self.scale, self.seed, self.shard_rows,
                self._sink_format(sink),
            ),
            resume=options.resume,
        )
        pool = ShardPool(options.backend, options.workers,
                         retries=options.retries, backoff=self.backoff)
        store = _SpooledStore(spool, pool, self.schema,
                              options.memory_budget)
        plan = _faults.as_plan(options.faults)
        previous_plan = _faults.install_plan(plan)
        try:
            try:
                walk(
                    order,
                    lambda task: apply_task(
                        task, self.schema, self.scale, self.seed,
                        result, structures, store,
                    ),
                    result, sink,
                )
            except BaseException:
                # A stage raised mid-run: the spool holds half-written
                # shards nobody can consume.  Remove it — unless the
                # caller chose the directory, in which case it is
                # theirs to inspect, resume, and clean up.
                if owns_spool:
                    spool.cleanup()
                raise
        finally:
            pool.close()
            _faults.install_plan(previous_plan)
            if plan is not None and plan is not options.faults:
                # as_plan() compiled this plan (string or env spec) and
                # with it a private fired-state tempdir; a caller-built
                # FaultPlan stays the caller's to clean up.
                plan.cleanup()
        return result

    @staticmethod
    def _sink_format(sink):
        """Sink identity for the run fingerprint: a half-written CSV
        spool must not be resumed into a JSONL export."""
        if sink is None:
            return "none"
        return getattr(sink, "format_name", None) or type(sink).__name__
