"""The batch driver: every batch run, in memory or out of core.

:func:`run_batch` walks the plan (:func:`~repro.core.tasks.walk`)
through the one task body (:func:`~repro.core.tasks.apply_task`) over
the one batch store, and is the only code that chooses its spool: a
:class:`~repro.io.spool.MemorySpool` in memory (one resident shard per
table, run inline), a disk :class:`~repro.io.spool.TableSpool` out of
core, where the pipeline touches at most a few ``shard_rows``-sized
arrays at a time — what unlocks billion-edge generation on commodity
boxes.  Both get the same retries and fault sites.

Byte-identity.  Outputs are bit-identical for any spool, shard size,
pool and worker count, by construction: ``apply_task`` decides what
every task computes and the store only how the rows are kept, shard
by shard through the one ``read_range`` table protocol
(:mod:`repro.tables.ranged`) — range-pure property kernels, chunkable
structures re-emitted from the seed, the final rows of every
matching.  Global state (spilled structure state, matching maps) is
kept by the spool's spill; the genuinely global stages (sequential
structure generators, correlated SBM-Part matching) materialise
transiently and spill their result.  Every per-shard unit goes through
one :class:`~repro.core.procpool.ShardPool` with a bounded in-flight
window; workers read their inputs from the spool and write part files
into it, and the parent acks shards in shard order and feeds the
sinks in plan order.  A worker killed mid-shard raises
:class:`~repro.core.procpool.ShardedError` and the owned spool is
removed.

Out of core, peak traced allocation is bounded by ``C · shard_rows``
plus the documented O(nodes) matching-permutation term — pinned by
``tests/test_sharded_memory.py`` and, at ~10M edges under a 256 MB
budget, by ``benchmarks/bench_scale.py``.
"""

from __future__ import annotations

import tempfile
import warnings
from pathlib import Path

from ..io.spool import MemorySpool, TableSpool
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


class _BatchStore(Store):
    """Every table as id-range shards of a spool (on disk, or one per
    table in RAM), filled through the pool; acked shards and recorded
    structures are adopted on resume; a matching the memory ``budget``
    cannot bound is warned about before it runs."""

    def __init__(self, spool, pool, schema=None, budget=None):
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
    """A :class:`PropertyGraph` over the spool its batch run filled.

    In memory its tables are resident; out of core they are
    :class:`~repro.io.spool.SpooledPropertyTable` /
    :class:`~repro.io.spool.SpooledEdgeTable` — same streaming
    interface, bounded memory — and the inherited :meth:`materialize`
    loads them for global consumers (validation, joint diagnostics).
    :meth:`cleanup` removes a disk spool once the result is no longer
    needed.
    """

    def __init__(self, schema, seed, spool):
        super().__init__(schema, seed)
        self.spool = spool

    def cleanup(self):
        """Delete the spool directory (invalidates spooled tables)."""
        self.spool.cleanup()


# -- executor ------------------------------------------------------------------


class ShardedExecutor:
    """Run the generation DAG per id-range shard, memory-bounded.

    Parameters
    ----------
    schema, scale, seed:
        as for the serial engine.
    shard_rows, memory_budget:
        rows per shard — the pipeline's memory unit — or a byte budget
        (int or ``"512MB"``-style) divided by
        :data:`~repro.core.run.BYTES_PER_SHARD_ROW`; a matching, a
        global stage the budget cannot bound, emits a
        :class:`RuntimeWarning` when it may exceed it.
    workers, backend:
        the :class:`~repro.core.procpool.ShardPool`: a window of
        ``workers + 1`` shards in flight on ``"thread"`` (default) or
        ``"process"`` workers, so peak memory scales with ``workers ×
        shard_rows``; output is identical for any choice.
    spool_dir, resume:
        the spool (by default a temporary directory, removed when a
        stage fails; a named one is kept), and whether to continue the
        run its ``checkpoint.jsonl`` catalog records: acked parts are
        re-verified (size + CRC) and skipped, and the export is
        byte-identical to an uninterrupted run.
    retries, backoff, faults:
        the per-shard retry budget and the base delay of its
        exponential backoff, and the
        :class:`~repro.core.faults.FaultPlan` (or spec string; ``None``
        reads ``REPRO_FAULTS``) consulted at stage boundaries.
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
        """Execute all tasks, streaming to ``sink`` as in memory (same
        bytes); returns a :class:`ShardedResult`."""
        return run_batch(self.schema, self.scale, self.seed, self.options,
                         sink, self.backoff)


def _sink_format(sink):
    """Sink identity for the run fingerprint: a half-written CSV spool
    must not be resumed into a JSONL export."""
    return "none" if sink is None else (
        getattr(sink, "format_name", None) or type(sink).__name__)


def run_batch(schema, scale, seed, options, sink=None, backoff=0.1):
    """The one batch driver: walk the plan over the batch store;
    returns the :class:`ShardedResult`.

    The one place a spool is chosen: out of core a :class:`TableSpool`
    (an owned temporary directory unless ``options.spool_dir`` names
    one) with its catalog, filled through ``ShardPool(backend,
    workers)``; in memory a :class:`MemorySpool`, run inline whatever
    ``workers`` is.  Both get the same retries and fault sites.
    """
    schema = schema.validate()
    order = build_task_graph(schema, scale).topological_order()
    if options.out_of_core:
        workers = options.workers
        spool = TableSpool(
            Path(options.spool_dir
                 or tempfile.mkdtemp(prefix="repro-spool-")),
            options.rows_per_shard,
        )
        spool.open_catalog(
            run_fingerprint(schema, scale, seed, spool.shard_rows,
                            _sink_format(sink)),
            resume=options.resume,
        )
    else:  # one shard per table: a pool would add memory, not speed
        spool, workers = MemorySpool(), 1
    result = ShardedResult(schema, seed, spool)
    structures = {}
    pool = ShardPool(options.backend, workers, retries=options.retries,
                     backoff=backoff)
    store = _BatchStore(spool, pool, schema, options.memory_budget)
    plan = _faults.as_plan(options.faults)
    previous_plan = _faults.install_plan(plan)
    try:
        walk(
            order,
            lambda task: apply_task(
                task, schema, scale, seed, result, structures, store,
            ),
            result, sink,
        )
    except BaseException:
        # A stage raised mid-run: the spool holds half-written shards
        # nobody can consume.  Remove it — unless the caller chose the
        # directory, in which case it is theirs to inspect, resume, and
        # clean up.
        if options.spool_dir is None:
            result.cleanup()
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
