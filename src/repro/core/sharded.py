"""The batch driver: every batch run, in memory or out of core.

:func:`run_batch` walks the plan (:func:`~repro.core.tasks.walk`)
through the one task body (:func:`~repro.core.tasks.apply_task`) over
the one batch store, and is the only code that chooses its spool: a
:class:`~repro.io.spool.MemorySpool` in memory (one resident shard per
table, run inline), a disk :class:`~repro.io.spool.TableSpool` out of
core, where the pipeline touches at most a few ``shard_rows``-sized
arrays at a time — what unlocks billion-edge generation on commodity
boxes.  Both walk the plan on ``workers`` threads, independent tasks at
once, and get the same retries and fault sites.

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
one :class:`~repro.core.procpool.ShardPool`, whose in-flight bound of
``workers + 1`` shards the overlapped tasks share; workers read their
inputs from the spool and write part files into it, and the parent
acks each table's shards in shard order and feeds the sinks in plan
order.  Fault sites are numbered by plan position and shard index
(:func:`~repro.core.tasks.site_numbers`), never by arrival.  A worker
killed mid-shard raises :class:`~repro.core.procpool.ShardedError`
and the owned spool is removed.

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
from .run import BYTES_PER_PERMUTED_NODE, parse_memory_budget
from .structures import adopted, metadata
from .tasks import (
    Store,
    apply_task,
    dep_slices,
    is_correlated,
    ledger_numbers,
    property_shard_values,
    site_numbers,
    walk,
)

__all__ = ["ShardedError"]

# -- per-shard jobs (module-level: picklable for any pool) --------------------


def _property_shard_part(spool, key, index, bound, sites, spec, task_id,
                         seed, deps):
    """One property shard: kernel to spool part file (any worker);
    ``sites`` pairs each fault site with the task's number there."""
    for site, number in sites:
        _faults.fire_occurrence(site, number, index)
    start, stop = bound
    values = property_shard_values(
        spec, task_id, seed, start, stop,
        dep_slices(deps, start, stop),
    )
    return spool.save_property_part(index, key, values)


def _edge_shard_part(spool, key, index, bound, sites, rows):
    """One final edge shard — chunk emission + relabel, or a page of
    a correlated matching's table — to the spool (any worker)."""
    for site, number in sites:
        _faults.fire_occurrence(site, number, index)
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

    def __init__(self, spool, pool, schema=None, budget=None, sites=None):
        self.spool = spool
        self.pool = pool
        self._schema = schema
        self._budget = None if budget is None else parse_memory_budget(budget)
        self._sites = sites or {}

    def _number(self, site, task_id):
        """The task's ``(n, tasks)`` at ``site``: see site_numbers."""
        return self._sites.get((site, task_id), (0, 1))

    def _shard_sites(self, task_id, stage):
        """``(site, number)`` a shard job fires: ``stage``, ``shard``."""
        return tuple((site, self._number(site, task_id))
                     for site in (stage, "shard"))

    def fire(self, site, task_id):
        # Counts are never checkpointed: recomputing them on resume is
        # cheap and cross-checks the purity argument.
        _faults.fire_occurrence(site, self._number(site, task_id))

    def _run_shards(self, key, job, bounds, args):
        """Fill one table's shards ``bounds`` in the spool.

        Shards flow through the pool's bounded in-flight window:
        workers run ``job(spool, key, index, bound, *args)`` — a pure
        kernel that saves its part file — and the parent acks the
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
        task_id = f"structure:{name}"
        self.fire("structure", task_id)
        handle = open_handle(spool.shard_rows, spool.spiller(
            f"structure.{name}", self._number("spill", task_id)))
        spool.record_structure(name, metadata(handle))
        return handle

    def properties(self, name, spec, count, deps, task_id, seed):
        self._run_shards(
            name, _property_shard_part, self.spool.shard_bounds(count),
            (self._shard_sites(task_id, "property"), spec, task_id, seed,
             deps),
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
        task_id = f"match:{name}"
        rows, match = build(spool.spiller(
            f"match.{name}", self._number("spill", task_id)))
        self._run_shards(
            name, _edge_shard_part,
            spool.shard_bounds(len(rows)) if len(rows) else [],
            (self._shard_sites(task_id, "match"), rows),
        )
        spool.drop_scratch(f"structure.{name}")
        spool.drop_scratch(f"match.{name}")
        # Relabelling preserves the structure's name and direction, so
        # the spooled table carries them too — EdgeTable.__eq__
        # compares the name.
        return spool.finish_edge(
            name, *id_space, structure.directed, name=structure.name
        ), match


def _sink_format(sink):
    """Sink identity for the run fingerprint: a half-written CSV spool
    must not be resumed into a JSONL export."""
    return "none" if sink is None else (
        getattr(sink, "format_name", None) or type(sink).__name__)


def run_batch(schema, scale, seed, options, sink=None):
    """The one batch driver: walk the plan over the batch store;
    returns the :class:`PropertyGraph` over the spool it filled.
    :meth:`~repro.core.engine.GraphGenerator.generate` is its caller.

    The one place a spool is chosen: out of core a :class:`TableSpool`
    (an owned temporary directory unless ``options.spool_dir`` names
    one) with its catalog, filled through ``ShardPool(backend,
    workers)``; in memory a :class:`MemorySpool`.  Either way the plan's
    tasks overlap on ``workers`` threads, and both get the same retries
    and fault sites, numbered by plan position.
    """
    schema = schema.validate()
    order = build_task_graph(schema, scale).topological_order()
    sites = site_numbers(order)
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
            numbers=ledger_numbers(order, sites),
        )
    else:  # one shard per table, inline
        spool, workers = MemorySpool(), 1
    result = PropertyGraph(schema, seed, spool)
    structures = {}
    pool = ShardPool(options.backend, workers, retries=options.retries)
    threads = ShardPool(workers=options.workers)
    store = _BatchStore(spool, pool, schema, options.memory_budget, sites)
    plan = _faults.as_plan(options.faults)
    previous_plan = _faults.install_plan(plan)
    try:
        walk(
            order,
            lambda task: apply_task(
                task, schema, scale, seed, result, structures, store,
            ),
            result, sink, threads,
        )
    except BaseException:
        # A stage raised mid-run: the spool holds half-written shards
        # nobody can consume.  Remove it, once no job still writes
        # into it — unless the caller chose the directory, in which
        # case it is theirs to inspect, resume, and clean up.
        pool.close()
        if options.spool_dir is None:
            result.cleanup()
        raise
    finally:
        spool.close_catalog()
        pool.close()
        threads.close()
        _faults.install_plan(previous_plan)
        if plan is not None and plan is not options.faults:
            # as_plan() compiled this plan (string or env spec) and
            # with it a private fired-state tempdir; a caller-built
            # FaultPlan stays the caller's to clean up.
            plan.cleanup()
    return result
