"""The one task body: what every task computes, whichever store runs it.

Two stores run a plan — the batch store over a spool in RAM or on disk
(:mod:`repro.core.sharded`) and virtual tables that hold no rows
(:mod:`repro.serve.virtual`) — and they agree byte for byte because
this module decides what each task computes; a store only keeps the
rows (:class:`Store`).  Three functional layers:

* **kernels** — pure functions of explicit, picklable inputs
  (``property_shard_values``, ``matching_maps``, ``match_edge``;
  structures run through :func:`~repro.core.structures.open_structure`).
  A kernel re-derives its random stream from ``(root seed, task id)``,
  so *any* process given the same inputs computes bit-identical output:
  the in-place contract of Section 4.1 that makes distributed
  generation possible.
* **input extraction** — ``*_inputs`` helpers that read a task's
  dependencies out of the partially-built :class:`PropertyGraph` in the
  coordinating process.
* **integration** — :func:`apply_task`, the only dispatch on a task's
  kind, which runs one task and hands its output to the store, and
  :func:`walk`, the one loop every batch run drives its plan through
  (see DESIGN.md), one task at a time or overlapped on threads.

Property kernels additionally accept an id *range*: generating rows
``[start, stop)`` with the full-table stream is bit-identical to the
corresponding slice of single-shot generation, which lets an
out-of-core run fill a large table shard by shard across workers.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import threading

import numpy as np

from ..io.spool import MemorySpool
from ..prng import RandomStream, derive_seed
from ..properties.registry import create_property_generator
from ..structure.registry import create_generator
from ..tables import PropertyTable
from ..tables.strings import as_strings
from .dependency import DependencyError
from .matching import (
    bipartite_sbm_part_match,
    random_match,
    sbm_part_match,
)
from .procpool import ShardPool
from .schema import SchemaError
from .structures import (
    MatchedEdges,
    open_structure,
    spill_maps,
    spilled_table,
)

__all__ = [
    "Store",
    "align_joint",
    "apply_task",
    "correlated_tables",
    "dep_slice",
    "export_task_output",
    "is_correlated",
    "match_edge",
    "matched_id_space",
    "matching_maps",
    "property_inputs",
    "property_refs",
    "property_shard_values",
    "property_values_at",
    "resolve_count",
    "site_numbers",
    "structure_inputs",
    "walk",
]

# -- kernels (picklable inputs; safe to run in worker processes) -------------


def property_shard_values(spec, task_id, seed, start, stop, dep_slices=()):
    """Values of the id range ``[start, stop)`` of one property table.

    ``dep_slices`` are the dependency columns *aligned with the range*
    (row ``j`` belongs to instance ``start + j``).  Because the stream
    seed depends only on ``(seed, task_id)`` and ``run_many`` is a pure
    function of ``(id, r(id), deps)``, the concatenation of shard
    outputs is bit-identical to single-shot generation — including the
    dtype when the range is empty, which the generator's
    ``output_dtype`` governs via its empty ``run_many`` result.  An
    all-``str`` result is a :class:`~repro.tables.StringColumn`.
    """
    generator = create_property_generator(spec.name, **spec.params)
    stream = RandomStream(derive_seed(seed, task_id))
    ids = np.arange(start, stop, dtype=np.int64)
    deps = [np.asarray(col) for col in dep_slices]
    return as_strings(generator.run_many(ids, stream, *deps))


def property_values_at(spec, task_id, seed, ids, dep_slices=()):
    """Values of an *arbitrary* id subset of one property table.

    The random-access twin of :func:`property_shard_values`: instead of
    a contiguous range, ``ids`` picks any rows, and ``dep_slices`` are
    the dependency columns aligned with ``ids``.  Built on the PG
    protocol's ``properties_of``, so for random-access generators the
    result is byte-identical to gathering ``ids`` from a full run —
    the kernel the virtual-graph serving layer answers point and page
    queries with (see docs/serving.md).
    """
    generator = create_property_generator(spec.name, **spec.params)
    stream = RandomStream(derive_seed(seed, task_id))
    ids = np.ascontiguousarray(ids, dtype=np.int64)
    deps = [np.asarray(col) for col in dep_slices]
    return as_strings(generator.properties_of(ids, stream, *deps))


def is_correlated(edge):
    """Does matching this edge type reproduce a property joint?

    Correlated (SBM-Part) matching walks the whole structure — a global
    stage every front end materialises for.  Everything else is a
    permutation matching, described completely by
    :func:`matching_maps`.  Strict-cardinality matching ignores
    correlations, and a bipartite correlation needs both properties.
    """
    corr = edge.correlation
    return (
        corr is not None
        and not edge.is_strict
        and (edge.is_monopartite or corr.head_property is not None)
    )


def _check_structure_fits(edge, structure, tail_count):
    """A structure cannot have more nodes than there are instances to
    match them to."""
    if edge.is_strict:
        if structure.num_tail_nodes > tail_count:
            raise SchemaError(
                f"edge {edge.name!r}: structure has more tails than "
                f"{edge.tail_type!r} instances"
            )
    elif edge.is_monopartite and structure.num_nodes > tail_count:
        raise SchemaError(
            f"edge {edge.name!r}: structure has {structure.num_nodes}"
            f" nodes but {edge.tail_type!r} has {tail_count} instances"
        )


def matching_maps(edge, seed, task_id, structure, tail_count, head_count):
    """Node-id maps of an uncorrelated (permutation) matching.

    The single derivation every store relabels through, as
    :class:`~repro.core.structures.MatchedEdges`: the batch store reads
    it a shard at a time (one shard in RAM), the virtual one a page at
    a time.  ``structure`` only needs topology metadata
    (``num_tail_nodes`` / ``num_head_nodes`` / ``num_nodes``), so any
    :class:`~repro.tables.ranged.EdgeRows` works — a chunk stream, the
    metadata-only :func:`~repro.core.structures.adopted` handle — as
    well as an :class:`~repro.tables.EdgeTable`.

    Returns ``(tail_map, head_map)`` — structure node id -> final node
    id per side.  ``head_map`` is ``None`` (identity) for
    strict-cardinality edges, and the *same array* as ``tail_map`` for
    monopartite edges.
    """
    _check_structure_fits(edge, structure, tail_count)
    if edge.is_monopartite and not edge.is_strict:
        pt_ids = PropertyTable(
            edge.name, np.arange(tail_count, dtype=np.int64)
        )
        mapping = random_match(
            pt_ids, structure, seed=derive_seed(seed, task_id)
        )
        return mapping, mapping
    stream = RandomStream(derive_seed(seed, task_id))
    # A permutation preserves the degree distribution.
    tail_map = stream.substream("tails").permutation(
        tail_count
    )[:structure.num_tail_nodes]
    if edge.is_strict:
        # Heads keep identity: they *define* the head instances.
        return tail_map, None
    head_map = stream.substream("heads").permutation(
        head_count
    )[:structure.num_head_nodes]
    return tail_map, head_map


def matched_id_space(edge, structure, tail_count, head_count):
    """``(num_tail_nodes, num_head_nodes)`` the matched edge table
    declares.

    The maps of a permutation matching (:func:`matching_maps`) land
    anywhere in the endpoint types' instance ranges, however few nodes
    the structure has, so the id space is the instance counts — except
    for the heads of a strict-cardinality edge, which keep their
    structure ids and *define* the head instances.  A correlated
    matching maps structure nodes one to one, so it keeps the
    structure's own id space.
    """
    if is_correlated(edge):
        return structure.num_tail_nodes, structure.num_head_nodes
    if edge.is_strict:
        return tail_count, structure.num_head_nodes
    return tail_count, head_count


def match_edge(edge, seed, task_id, structure, tail_count, head_count,
               tail_pt=None, head_pt=None):
    """Run a correlated (SBM-Part) matching over a whole structure.

    Parameters
    ----------
    edge:
        the :class:`~repro.core.schema.EdgeType` being matched
        (``is_correlated(edge)``; permutation matchings are
        :func:`matching_maps`).
    seed, task_id:
        root seed and ``"match:<edge>"`` — the stream derivation.
    structure:
        the pre-matching :class:`~repro.tables.EdgeTable`.
    tail_count, head_count:
        instance counts of the endpoint types (the id spaces matched
        into).
    tail_pt, head_pt:
        the correlated property tables ``edge.correlation`` names.

    Returns
    -------
    (EdgeTable, match_result):
        the final edge table and the matcher diagnostics.
    """
    stream = RandomStream(derive_seed(seed, task_id))
    corr = edge.correlation
    if not edge.is_monopartite:
        match = bipartite_sbm_part_match(
            tail_pt,
            head_pt,
            np.asarray(corr.joint, dtype=np.float64),
            structure,
            order=stream.substream("arrival").permutation(
                structure.num_tail_nodes + structure.num_head_nodes
            ),
        )
        final = structure.relabeled(
            match.tail_mapping, match.head_mapping
        )
        return final, match

    _check_structure_fits(edge, structure, tail_count)
    _, categories = tail_pt.codes()
    joint = align_joint(corr.joint, list(categories), corr.values)
    match = sbm_part_match(
        tail_pt,
        joint,
        structure,
        order=stream.substream("arrival").permutation(
            structure.num_nodes
        ),
        tie_stream=stream.substream("ties"),
    )
    return structure.relabeled(match.mapping), match


def align_joint(joint, categories, values):
    """Reorder a joint's matrix into sorted-category order.

    The declared joint may cover values that happen not to occur in
    the generated PT (small scale factors); those rows/columns are
    dropped and the matrix renormalised.  Observed values missing
    from the declaration are an error.
    """
    from ..stats import JointDistribution

    if values is None:
        return joint
    values = list(values)
    position = {v: i for i, v in enumerate(values)}
    unknown = [c for c in categories if c not in position]
    if unknown:
        raise SchemaError(
            "property values not covered by the correlation "
            f"declaration: {unknown!r}"
        )
    perm = np.array(
        [position[c] for c in categories], dtype=np.int64
    )
    matrix = np.asarray(
        joint.matrix if isinstance(joint, JointDistribution) else joint,
        dtype=np.float64,
    )
    reordered = matrix[np.ix_(perm, perm)]
    if reordered.sum() <= 0:
        raise SchemaError(
            "correlation joint has no mass on the observed values"
        )
    if isinstance(joint, JointDistribution):
        return JointDistribution(reordered)
    return reordered / reordered.sum()


# -- input extraction (runs in the coordinating process) ---------------------


def resolve_count(schema, scale, task, structures):
    """Instance count of a node type: scale anchor or structure size."""
    name = task.subject
    if name in scale:
        return int(scale[name])
    # Inferred from a structure task (listed as the dependency).
    for dep in task.depends_on:
        if dep.startswith("structure:"):
            edge_name = dep[len("structure:"):]
            edge = schema.edge_type(edge_name)
            table = structures[edge_name]
            if edge.head_type == name:
                return table.num_head_nodes
            return table.num_tail_nodes
    raise DependencyError(f"count task for {name!r} has no source")


def structure_inputs(schema, scale, seed, task, node_counts):
    """-> ``(spec, sg_seed, n)`` for
    :func:`~repro.core.structures.open_structure`.

    Resolves the ``n`` to call ``run`` with (Section 4.2): an edge-count
    anchor is inverted through ``get_num_nodes`` ("use the result to
    size the graph structure and the number of Persons"); otherwise the
    tail type's instance count is used.  ``get_num_nodes`` is stateless,
    so sizing here and generating in a worker stays bit-identical.  A
    size the generator cannot produce is a :class:`SchemaError` naming
    the edge type, from every front end.
    """
    edge = schema.edge_type(task.subject)
    if edge.structure is None:
        raise SchemaError(
            f"edge type {edge.name!r}: no structure generator declared"
        )
    sg_seed = derive_seed(seed, task.task_id)
    generator = create_generator(
        edge.structure.name, seed=sg_seed, **edge.structure.params
    )
    if edge.name in scale:
        try:
            n = generator.get_num_nodes(int(scale[edge.name]))
        except ValueError as exc:  # an edge count it cannot reach
            raise SchemaError(
                f"{edge.name}: {generator.name} {exc}"
            ) from None
    else:
        n = node_counts[edge.tail_type]
    problem = generator.node_count_problem(n)
    if problem:
        raise SchemaError(f"{edge.name}: {generator.name} {problem}")
    return edge.structure, sg_seed, n


def property_refs(schema, task):
    """Resolve a node- or edge-property task's declaration.

    Returns ``(spec, owner, refs)``: the generator spec, the owning
    type's name, and one ``(side, table_key)`` per dependency —
    ``table_key`` names the ``"Type.prop"`` table depended on and
    ``side`` is as in :meth:`~repro.core.schema.EdgeType.
    dependency_ref` (always ``None`` for node properties).
    """
    owner, prop_name = task.subject.split(".", 1)
    if task.kind == "property":
        prop = schema.node_type(owner).property_named(prop_name)
        refs = [(None, f"{owner}.{dep}") for dep in prop.depends_on]
    else:
        edge = schema.edge_type(owner)
        prop = edge.property_named(prop_name)
        refs = [
            (side, f"{dep_owner}.{name}")
            for side, dep_owner, name
            in map(edge.dependency_ref, prop.depends_on)
        ]
    if prop.generator is None:
        raise SchemaError(
            f"{task.subject}: no property generator declared"
        )
    return prop.generator, owner, refs


def property_inputs(schema, task, result):
    """-> ``(spec, count, deps)`` for a node or edge property task.

    ``deps`` are storage-agnostic descriptors over the tables of
    ``result`` (resident, spooled, overlaid — anything answering the
    table protocol), resolved per id range by :func:`dep_slice`:
    ``("range", table)`` is a column of the same owner, ``("tail" |
    "head", pt, edges)`` an endpoint property gathered through the
    final edge table so it lines up with edge ids.  Tables pickle as
    spool paths, so the descriptors travel to worker processes.
    """
    spec, owner, refs = property_refs(schema, task)
    if task.kind == "property":
        return spec, result.node_counts[owner], [
            ("range", result.node_properties[key]) for _, key in refs
        ]
    edges = result.edge_tables[owner]
    return spec, len(edges), [
        ("range", result.edge_properties[key]) if side is None
        else (side, result.node_properties[key], edges)
        for side, key in refs
    ]


def dep_slice(dep, start, stop):
    """The rows ``[start, stop)`` of one :func:`property_inputs`
    dependency descriptor — the one place a dependency becomes a
    column, for a single whole-table call, every shard of a spooled
    fill and every page a served table reads."""
    kind = dep[0]
    if kind == "range":
        return dep[1].read_range(start, stop)
    tails, heads = dep[2].read_range(start, stop)
    return dep[1].gather(tails if kind == "tail" else heads)


def correlated_tables(edge, result):
    """-> ``(tail_pt, head_pt)`` for :func:`match_edge`: the property
    tables a correlated matching reproduces the joint of (``head_pt``
    is ``None`` unless the correlation is bipartite).  The matching is
    a global stage whatever the store, so they are handed over
    resident."""
    corr = edge.correlation
    return tuple(
        None if prop is None
        else result.node_property(owner, prop).to_property_table()
        for owner, prop in (
            (edge.tail_type, corr.tail_property),
            (edge.head_type, corr.head_property),
        )
    )


# -- integration --------------------------------------------------------------


class Store:
    """How a run keeps rows — all :func:`apply_task` leaves open.

    * ``structure(name, open_handle)`` -> the handle to keep;
      ``open_handle(chunk_rows, spill)`` runs
      :func:`~repro.core.structures.open_structure`;
    * ``properties(name, spec, count, deps, task_id, seed)`` -> a
      property table over :func:`property_inputs`' output;
    * ``edges(name, structure, id_space, build)`` -> ``(table,
      diagnostics)`` of a matching: ``build(spill)`` returns the final
      rows as one :class:`~repro.tables.ranged.EdgeRows` plus the
      diagnostics, keeping the matching state through ``spill``.

    Each ``spill`` is one of :mod:`repro.io.spool`'s two, its spool's.

    ``fire(site, task_id)`` marks a stage boundary for fault injection.
    """

    def fire(self, site, task_id):
        """A stage boundary; only the batch store injects faults."""


#: task kind -> the sink event it maps to.  ``structure`` outputs are
#: pre-matching intermediates and are never exported.
_EXPORT_EVENTS = {
    "count": "count",
    "property": "node_property",
    "match": "edge_table",
    "edge_property": "edge_property",
}


def export_task_output(task, sink):
    """Announce one completed task to a streaming export sink.

    :func:`walk` calls this in *plan order* — each task only after
    every plan-order predecessor has completed — which is the
    ordering guarantee sinks rely on to flush record-oriented files at
    the earliest correct moment (see
    :class:`repro.io.streaming.GraphSink`).  The sink reads the task's
    table out of the result graph it was attached to via ``begin`` and
    streams it in id-range chunks, so export overlaps generation
    without re-materialising any table.
    """
    if sink is None:
        return
    event = _EXPORT_EVENTS.get(task.kind)
    if event is not None:
        sink.on_table(event, task.subject)


def walk(order, apply, result, sink=None, threads=None):
    """Drive one batch run: every task of ``order``, in plan order.

    ``apply(task)`` runs the task and stores its output in ``result``
    — :func:`apply_task` over the run's store — and the sink, when
    there is one, hears about each task as soon as it is stored.
    Storage is the only thing that varies between runs; this loop is
    the only one there is, overlapping tasks on ``threads``' workers.
    """
    if sink is not None:
        sink.begin(result)
    with contextlib.closing(_stored(order, apply, result, threads)) as stored:
        for task in stored:
            export_task_output(task, sink)
    if sink is not None:
        sink.finish()


#: ``malloc_trim()``: glibc's ``malloc_trim(0)``, or a no-op without
#: it.  Each thread's arena keeps what it freed, unless trimmed.
malloc_trim = functools.partial(
    getattr(ctypes.CDLL(None), "malloc_trim", lambda pad: 0),
    ctypes.c_size_t(0))


def _stored(order, apply, result, threads):
    """Each task of ``order`` in plan order, once stored: run here, or
    on more than one of ``threads``' workers, each starting the first
    task whose ``depends_on`` are done.  A failure stops the tasks after
    it in plan order from starting, and is raised after those before."""
    if threads is None or threads.workers == 1:
        for task in order:
            apply(task)
            yield task
        return
    position = {task.task_id: i for i, task in enumerate(order)}
    state = [None] * len(order)  # None, "running", "done" or the error
    stop = [len(order)]  # no task from this plan position on starts
    changed = threading.Condition()

    def ready():
        return next((i for i in range(stop[0]) if state[i] is None and all(
            state[position[dep]] == "done" for dep in order[i].depends_on
        )), None)

    def worker():
        while True:
            with changed:
                while (i := ready()) is None and "running" in state:
                    changed.wait()
                if i is None:
                    return
                state[i] = "running"
            try:
                apply(order[i])
                outcome = "done"
            except BaseException as exc:  # raised on the calling thread
                outcome = exc
            malloc_trim()
            with changed:
                state[i] = outcome
                if outcome != "done":
                    stop[0] = min(stop[0], i)
                changed.notify_all()

    workers = [threads.submit(worker) for _ in range(threads.workers)]
    try:
        for head, task in enumerate(order):
            with changed:
                changed.wait_for(lambda: state[head] not in (None, "running"))
            if state[head] != "done":
                raise state[head]
            yield task
    finally:
        with changed:
            stop[0] = 0
            changed.notify_all()
        for future in workers:
            future.result()
    # A match task's subject, its edge, is ranked after its structure's.
    rank = {task.subject: i for i, task in enumerate(order)}
    for tables in (result.node_counts, result.node_properties,
                   result.edge_tables, result.match_results,
                   result.edge_properties):
        ordered = sorted(tables.items(), key=lambda item: rank[item[0]])
        tables.clear()
        tables.update(ordered)


#: fault site -> the task kinds the plan numbers it by.
_SITE_TASKS = {"count": ("count",), "structure": ("structure",),
               "property": ("property", "edge_property"), "match": ("match",),
               "shard": ("property", "edge_property", "match")}


def site_numbers(order, sites=tuple(_SITE_TASKS)):
    """``(site, task id) -> n``: the task is the plan's ``n``-th at the
    site, whatever order threads reach it in."""
    return {(site, task.task_id): n for site in sites for n, task in enumerate(
        task for task in order if task.kind in _SITE_TASKS[site])}


def apply_task(task, schema, scale, seed, result, structures, store=None):
    """Run one task and keep its output in ``result`` — pre-matching
    structures in ``structures`` — through ``store``; when ``None``,
    the batch store over a fresh RAM spool, so tables land resident.

    This is the only dispatch on ``task.kind``: every store computes
    each kind this way and decides only how the rows are kept.
    """
    if store is None:
        from .sharded import _BatchStore  # sharded imports this module

        store = _BatchStore(MemorySpool(), ShardPool())
    kind, name = task.kind, task.subject
    if kind == "count":
        store.fire("count", task.task_id)
        result.node_counts[name] = resolve_count(
            schema, scale, task, structures
        )
    elif kind in ("property", "edge_property"):
        tables = (
            result.node_properties if kind == "property"
            else result.edge_properties
        )
        tables[name] = store.properties(
            name, *property_inputs(schema, task, result),
            task.task_id, seed,
        )
    elif kind == "structure":
        structures[name] = store.structure(
            name, lambda chunk_rows, spill: open_structure(
                *structure_inputs(
                    schema, scale, seed, task, result.node_counts
                ),
                chunk_rows, spill,
            ),
        )
    elif kind == "match":
        edge = schema.edge_type(name)
        structure = structures[name]
        counts = [result.node_counts[type_name]
                  for type_name in (edge.tail_type, edge.head_type)]
        id_space = matched_id_space(edge, structure, *counts)

        def build(spill):
            if not len(structure):
                # No edge to place, so no matching — what the virtual
                # store does too, as it never builds an unread table.
                return MatchedEdges(structure, None, None, id_space), None
            if is_correlated(edge):
                table, match = match_edge(
                    edge, seed, task.task_id, structure.to_edge_table(),
                    *counts, *correlated_tables(edge, result),
                )
                return spilled_table(spill, table), match
            maps = matching_maps(
                edge, seed, task.task_id, structure, *counts
            )
            return MatchedEdges(
                structure, *spill_maps(spill, *maps), id_space
            ), None

        result.edge_tables[name], result.match_results[name] = (
            store.edges(name, structure, id_space, build)
        )
    else:  # pragma: no cover - guarded by build_task_graph
        raise DependencyError(f"unknown task kind {kind!r}")
