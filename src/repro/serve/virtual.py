"""The virtual graph: random-access queries straight from a recipe.

A :class:`VirtualGraph` holds *no* node or edge tables.  It resolves a
schema + scale + seed into metadata (counts, matching maps, structure
chunk streams) and answers point and page queries by recomputing
exactly the rows a full :meth:`~repro.core.engine.GraphGenerator.
generate` run would have produced — byte-identical, because every
stage it touches is a pure function of ``(seed, indices)``:

* **node properties** — the PG protocol's ``properties_of`` via
  :func:`~repro.core.tasks.property_values_at`, with intra-type
  dependencies resolved recursively on the queried ids only;
* **edges** — random-access structure generators re-emit any edge page
  through a :mod:`~repro.core.structures` handle, then the permutation
  maps of :func:`~repro.core.tasks.matching_maps` — the function the
  serial ``match_edge`` itself calls — relabel the page.  The maps are
  the documented O(nodes) term; they are spilled to a disk spool and
  memory-mapped, so query-time allocation stays O(page + chunk);
* **edge properties** — the same PG kernel, with ``tail.x``/``head.x``
  dependencies gathered by *recomputing* the endpoint properties at
  the page's endpoint ids (random access again, no node table);
* **neighbourhoods / edge-existence** — a bounded scan over the edge
  pages (O(m) compute, O(chunk) memory).

Two configurations fall back to a documented **spooled** mode — the
same two global stages the sharded executor has, decided by the same
code (:func:`~repro.core.structures.open_structure`,
:func:`~repro.core.tasks.is_correlated`): sequential structure
generators (the table is materialised once, spilled, and paged from
disk) and correlated (SBM-Part) matching (the final table is computed
once at first touch, spilled, and paged from disk).  The
:meth:`VirtualGraph.classification` report says which mode each edge
type is in and why — that is the protocol flag surfaced to clients.

Planted scenarios (a ``plants:`` block in the recipe) are served as a
bounded overlay: the :func:`~repro.planting.plant.plan_plants` plan is
a pure function of ``(plants, node counts, base edge counts, seed)``,
so the serving layer computes the *same* plan the exporters do.
Appended plant edges occupy the contiguous id range ``[m, m+e)`` after
the generated block, forced node attributes patch the public
node-property queries, and dependent edge properties over the
appended ids are recomputed through the same random-access kernel —
so ``neighbors_of`` / ``edge_exists`` see the injected patterns and
every page matches the exported planted world byte for byte.
"""

from __future__ import annotations

import tempfile
import threading
from pathlib import Path

import numpy as np

from ..core.dependency import build_task_graph
from ..core.schema import SchemaError
from ..core.structures import (
    SpilledStructure,
    StructureHandle,
    emit_matched,
    open_structure,
    spill_maps,
)
from ..core.tasks import (
    correlated_tables,
    is_correlated,
    match_edge,
    matched_id_space,
    matching_maps,
    property_values_at,
    resolve_count,
    structure_inputs,
)
from ..io.spool import TableSpool
from ..planting.overlay import OverlayEdgeTable
from ..tables import PropertyTable

__all__ = ["VirtualGraph"]


class _EdgeState(StructureHandle):
    """Final (post-matching) edges of one edge type: a structure
    handle relabelled through the spilled matching maps.  ``emit``
    doubles as ``read_range``, which is all the plant overlay
    (:class:`~repro.planting.overlay.OverlayEdgeTable`) asks of its
    base table."""

    def __init__(self, source, tail_map=None, head_map=None,
                 id_space=None):
        super().__init__(**source.metadata())
        if id_space is not None:
            self.num_tail_nodes, self.num_head_nodes = id_space
        self._source = source
        self._tail_map = tail_map
        self._head_map = head_map

    def emit(self, lo, hi):
        """Final ``(tails, heads)`` of edge ids ``[lo, hi)``."""
        return emit_matched(
            self._source, lo, hi, self._tail_map, self._head_map
        )

    read_range = emit


class VirtualGraph:
    """Random-access façade over a compiled scenario (or raw schema).

    Parameters
    ----------
    schema, scale, seed:
        as for the engines.
    spool_dir:
        where matching maps and spooled fallbacks land (a temporary
        directory by default; :meth:`close` removes it when owned).
    chunk_rows:
        page/scan granularity — the memory unit of every query.
    """

    def __init__(self, schema, scale, seed=0, spool_dir=None,
                 chunk_rows=65_536, plants=None):
        self.schema = schema.validate()
        self.scale = dict(scale)
        self.seed = int(seed)
        self.chunk_rows = int(chunk_rows)
        if self.chunk_rows < 1:
            raise ValueError("chunk_rows must be >= 1")
        self._owns_spool = spool_dir is None
        if spool_dir is None:
            spool_dir = tempfile.mkdtemp(prefix="repro-serve-")
        self._spool = TableSpool(Path(spool_dir), self.chunk_rows)
        self._lock = threading.RLock()
        self.node_counts = {}
        self._sources = {}
        self._states = {}
        self.plan = None
        try:
            self._resolve_topology()
            if plants:
                self._resolve_plants(plants)
        except BaseException:
            self.close()
            raise

    @classmethod
    def from_scenario(cls, compiled, spool_dir=None, chunk_rows=65_536):
        """Build from a :class:`~repro.scenarios.compile.
        CompiledScenario` (what ``repro serve <recipe>`` does)."""
        return cls(
            compiled.schema, compiled.scale, seed=compiled.seed,
            spool_dir=spool_dir, chunk_rows=chunk_rows,
            plants=getattr(compiled, "plants", None),
        )

    def close(self):
        """Release mmap'd views; remove the spool when owned.

        Always drops the memory-mapped match maps (a borrowed spool
        keeps its files, but this graph's handles are closed), then
        unlinks owned directories — the signal-drain path relies on
        this to leave no ``repro-serve-*`` tempdir behind.
        """
        self._spool.close_views()
        if self._owns_spool:
            self._spool.cleanup()

    # -- topology (counts + structure metadata, no matching yet) ----------

    def _resolve_topology(self):
        order = build_task_graph(
            self.schema, self.scale
        ).topological_order()
        for task in order:
            if task.kind == "count":
                self.node_counts[task.subject] = resolve_count(
                    self.schema, self.scale, task, self._sources
                )
            elif task.kind == "structure":
                self._sources[task.subject] = open_structure(
                    *structure_inputs(
                        self.schema, self.scale, self.seed, task,
                        self.node_counts,
                    ),
                    self.chunk_rows,
                    self._spool.spiller(f"structure.{task.subject}"),
                )

    # -- planting overlay --------------------------------------------------

    def _resolve_plants(self, plants):
        """Compute the plant plan against the resolved topology.

        Feeds :func:`~repro.planting.plant.plan_plants` exactly what
        :func:`~repro.scenarios.compile.run_scenario` feeds it after
        generation — node counts and *base* edge counts — so the plan
        (node maps, appended edge block, forced attributes) is
        identical to the exported one.
        """
        from ..planting import plan_plants

        base_counts = {
            name: source.num_edges
            for name, source in self._sources.items()
        }
        self.plan = plan_plants(
            list(plants), self.node_counts, base_counts, self.seed
        )

    def _appended_edges(self, name):
        """``(tails, heads)`` of the appended plant block (maybe empty)."""
        if self.plan is None:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        extra = self.plan.appended.get(name)
        if extra is None:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        return extra

    def _apply_node_overrides(self, type_name, prop_name, ids, values):
        """Patch forced plant attributes into a node-property page."""
        if self.plan is None:
            return values
        override = self.plan.overrides.get(f"{type_name}.{prop_name}")
        if override is None:
            return values
        ov_ids, ov_values = override
        pos = np.searchsorted(ov_ids, ids)
        pos = np.minimum(pos, ov_ids.size - 1)
        hit = ov_ids[pos] == ids
        if not hit.any():
            return values
        patched = values.astype(
            np.promote_types(values.dtype, ov_values.dtype), copy=True
        )
        patched[hit] = ov_values[pos[hit]]
        return patched

    # -- matching state (lazy, thread-safe) --------------------------------

    def _edge_state(self, name):
        """The final edge table of one type, exactly as the exporters
        see it: the matched pages (``.base``) with the appended plant
        block (maybe empty) laid over them."""
        state = self._states.get(name)
        if state is not None:
            return state
        with self._lock:
            state = self._states.get(name)
            if state is None:
                state = OverlayEdgeTable(
                    self._build_edge_state(name),
                    *self._appended_edges(name),
                )
                self._states[name] = state
            return state

    def _build_edge_state(self, name):
        edge = self.schema.edge_type(name)
        source = self._sources[name]
        tail_count = self.node_counts[edge.tail_type]
        head_count = self.node_counts[edge.head_type]
        if is_correlated(edge):
            return self._build_correlated_state(
                edge, source, tail_count, head_count
            )
        tail_map, head_map = matching_maps(
            edge, self.seed, f"match:{name}", source,
            tail_count, head_count,
        )
        # The maps are the O(nodes) term: always spilled here, so
        # query-time allocation stays O(page + chunk).
        return _EdgeState(source, *spill_maps(
            self._spool.spiller(f"match.{name}"), tail_map, head_map
        ), matched_id_space(edge, source, tail_count, head_count))

    def _build_correlated_state(self, edge, source, tail_count,
                                head_count):
        """Correlated (SBM-Part) matching — the other global stage.

        Runs the exact serial matching kernel once, spills the final
        table, and pages it from disk; byte-identical to ``generate``
        because it *is* the serial kernel.
        """
        table, _ = match_edge(
            edge, self.seed, f"match:{edge.name}",
            source.to_edge_table(), tail_count, head_count,
            *correlated_tables(edge, self._node_column),
        )
        return _EdgeState(SpilledStructure(
            self._spool.spiller(f"final.{edge.name}"), table
        ))

    def _node_column(self, type_name, prop_name):
        """One whole node-property column (global stages only).

        Raw (pre-override) values: correlated matching ran against the
        generated properties, before any plant forced its attributes.
        """
        ids = np.arange(self.node_counts[type_name], dtype=np.int64)
        return PropertyTable(
            f"{type_name}.{prop_name}",
            self._raw_node_properties_of(type_name, prop_name, ids),
        )

    # -- node queries ------------------------------------------------------

    def node_count(self, type_name):
        if type_name not in self.node_counts:
            raise KeyError(f"unknown node type {type_name!r}")
        return self.node_counts[type_name]

    def node_property_names(self, type_name):
        return [
            prop.name
            for prop in self.schema.node_type(type_name).properties
        ]

    def _check_node_ids(self, type_name, ids):
        count = self.node_count(type_name)
        ids = np.ascontiguousarray(ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= count):
            raise IndexError(
                f"node ids out of range [0, {count}) for "
                f"{type_name!r}"
            )
        return ids

    def _node_values(self, type_name, prop, ids, cache):
        if prop.name in cache:
            return cache[prop.name]
        if prop.generator is None:
            raise SchemaError(
                f"{type_name}.{prop.name}: no property generator "
                "declared"
            )
        node_type = self.schema.node_type(type_name)
        deps = [
            self._node_values(
                type_name, node_type.property_named(dep), ids, cache
            )
            for dep in prop.depends_on
        ]
        values = property_values_at(
            prop.generator, f"property:{type_name}.{prop.name}",
            self.seed, ids, deps,
        )
        cache[prop.name] = values
        return values

    def _raw_node_properties_of(self, type_name, prop_name, ids):
        """One property column as *generated* (no plant overrides)."""
        node_type = self.schema.node_type(type_name)
        prop = node_type.property_named(prop_name)
        ids = self._check_node_ids(type_name, ids)
        return self._node_values(type_name, prop, ids, {})

    def node_properties_of(self, type_name, prop_name, ids):
        """One property column at arbitrary node ids (O(page)).

        Plant-forced attributes are patched in, matching the exported
        overlay columns.
        """
        ids = self._check_node_ids(type_name, ids)
        values = self._raw_node_properties_of(type_name, prop_name, ids)
        return self._apply_node_overrides(
            type_name, prop_name, ids, values
        )

    def node_records(self, type_name, ids):
        """All property columns at the given ids, in schema order."""
        node_type = self.schema.node_type(type_name)
        ids = self._check_node_ids(type_name, ids)
        cache = {}
        return {
            prop.name: self._apply_node_overrides(
                type_name, prop.name, ids,
                self._node_values(type_name, prop, ids, cache),
            )
            for prop in node_type.properties
        }

    # -- edge queries ------------------------------------------------------

    def edge_count(self, name):
        """Total edges, including the appended plant block (if any)."""
        return self.base_edge_count(name) + self._appended_edges(
            name
        )[0].size

    def base_edge_count(self, name):
        """Generated (pre-injection) edges only."""
        if name not in self._sources:
            raise KeyError(f"unknown edge type {name!r}")
        return self._sources[name].num_edges

    def edge_property_names(self, name):
        return [
            prop.name
            for prop in self.schema.edge_type(name).properties
        ]

    def _check_edge_range(self, name, lo, hi):
        count = self.edge_count(name)
        lo, hi = int(lo), int(hi)
        if not 0 <= lo <= hi <= count:
            raise IndexError(
                f"edge range [{lo}, {hi}) out of bounds "
                f"[0, {count}) for {name!r}"
            )
        return lo, hi

    def edges_range(self, name, lo, hi):
        """Final ``(tails, heads)`` of edge ids ``[lo, hi)``.

        Ids past the generated block page into the appended plant
        edges, exactly like the exported overlay table.
        """
        lo, hi = self._check_edge_range(name, lo, hi)
        return self._edge_state(name).read_range(lo, hi)

    def _edge_values(self, edge, prop, ids, tails, heads, cache,
                     node_get=None):
        if prop.name in cache:
            return cache[prop.name]
        if prop.generator is None:
            raise SchemaError(
                f"{edge.name}.{prop.name}: no property generator "
                "declared"
            )
        if node_get is None:
            node_get = self._raw_node_properties_of
        deps = []
        for dep in prop.depends_on:
            side, owner, name = edge.dependency_ref(dep)
            if side is None:
                deps.append(self._edge_values(
                    edge, edge.property_named(name), ids, tails, heads,
                    cache, node_get,
                ))
            else:
                deps.append(node_get(
                    owner, name, tails if side == "tail" else heads
                ))
        values = property_values_at(
            prop.generator, f"property:{edge.name}.{prop.name}",
            self.seed, ids, deps,
        )
        cache[prop.name] = values
        return values

    def _edge_property_page(self, edge, props, lo, hi):
        """Property columns (dict) for edge ids ``[lo, hi)``.

        The generated segment recomputes endpoint dependencies from the
        *raw* node columns (that is what base generation saw); the
        appended segment gathers them through the overridden columns,
        so forced plant attributes feed dependent edge properties —
        mirroring the exported overlay tables in both halves.
        """
        m = self.base_edge_count(edge.name)
        pages = []
        if lo < m:
            b_hi = min(hi, m)
            tails, heads = self._edge_state(edge.name).base.emit(
                lo, b_hi
            )
            ids = np.arange(lo, b_hi, dtype=np.int64)
            cache = {}
            pages.append((tails, heads, {
                prop.name: self._edge_values(
                    edge, prop, ids, tails, heads, cache
                )
                for prop in props
            }))
        if hi > m:
            extra_tails, extra_heads = self._appended_edges(edge.name)
            a_lo, a_hi = max(lo, m) - m, hi - m
            tails = extra_tails[a_lo:a_hi]
            heads = extra_heads[a_lo:a_hi]
            ids = np.arange(m + a_lo, m + a_hi, dtype=np.int64)
            cache = {}
            pages.append((tails, heads, {
                prop.name: self._edge_values(
                    edge, prop, ids, tails, heads, cache,
                    node_get=self.node_properties_of,
                )
                for prop in props
            }))
        if len(pages) == 1:
            tails, heads, columns = pages[0]
            return {"tail": tails, "head": heads, **columns}
        if not pages:
            empty = np.empty(0, dtype=np.int64)
            out = {"tail": empty, "head": empty.copy()}
            for prop in props:
                out[prop.name] = np.empty(0)
            return out
        out = {
            "tail": np.concatenate([p[0] for p in pages]),
            "head": np.concatenate([p[1] for p in pages]),
        }
        for prop in props:
            out[prop.name] = np.concatenate(
                [p[2][prop.name] for p in pages]
            )
        return out

    def edge_properties_range(self, name, prop_name, lo, hi):
        """One edge-property column over edge ids ``[lo, hi)``.

        Endpoint dependencies (``tail.x`` / ``head.x``) are recomputed
        at the page's endpoint ids — random access end to end.
        """
        edge = self.schema.edge_type(name)
        prop = edge.property_named(prop_name)
        lo, hi = self._check_edge_range(name, lo, hi)
        return self._edge_property_page(edge, [prop], lo, hi)[
            prop.name
        ]

    def edge_records(self, name, lo, hi):
        """Endpoints plus every property column for a page of edges."""
        edge = self.schema.edge_type(name)
        lo, hi = self._check_edge_range(name, lo, hi)
        return self._edge_property_page(edge, edge.properties, lo, hi)

    def neighbors_of(self, name, node_id, direction="both"):
        """Neighbours of one (final) node id over edge type ``name``.

        A bounded scan of the final edge pages in edge-id order —
        O(m) compute, O(chunk) memory — with the same endpoint
        convention as :meth:`repro.structure.base.StructureGenerator.
        neighbors_of`.
        """
        if direction not in ("out", "in", "both"):
            raise ValueError(
                f"direction must be out/in/both, got {direction!r}"
            )
        node_id = int(node_id)
        found = []
        total = self.edge_count(name)
        for lo in range(0, total, self.chunk_rows):
            hi = min(lo + self.chunk_rows, total)
            tails, heads = self.edges_range(name, lo, hi)
            if direction in ("out", "both"):
                found.append(heads[tails == node_id])
            if direction in ("in", "both"):
                mask = heads == node_id
                if direction == "both":
                    mask &= tails != heads
                found.append(tails[mask])
        if not found:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(found)

    def edge_exists(self, name, src, dst):
        """Does the final edge ``src -> dst`` exist (either orientation
        for undirected edge types)?  Bounded scan with early exit.

        Scans the appended plant block too, so injected template edges
        are visible."""
        src, dst = int(src), int(dst)
        state = self._edge_state(name)
        total = self.edge_count(name)
        for lo in range(0, total, self.chunk_rows):
            hi = min(lo + self.chunk_rows, total)
            tails, heads = self.edges_range(name, lo, hi)
            hit = (tails == src) & (heads == dst)
            if not state.directed:
                hit |= (tails == dst) & (heads == src)
            if hit.any():
                return True
        return False

    # -- metadata ----------------------------------------------------------

    def warm(self):
        """Build every edge state up front (server start-up)."""
        for name in self.schema.edge_types:
            self._edge_state(name)
        return self

    def _access_mode(self, name):
        """``(mode, reason)`` of one edge type — ``"virtual"`` pages
        are re-derived from the seed, ``"spooled"`` pages are read from
        a table computed once (the two documented global stages)."""
        if is_correlated(self.schema.edge_type(name)):
            return "spooled", (
                "correlated matching is a global stage; the matched "
                "table is computed once and paged from the disk spool"
            )
        if self._sources[name].random_access:
            return "virtual", (
                "seed-derived chunked emission relabeled through "
                "spilled permutation maps"
            )
        return "spooled", (
            "sequential structure generator; edges materialised once "
            "and paged from the disk spool"
        )

    def classification(self):
        """Access-mode report: which tables are virtual and why."""
        edges = {}
        for name, edge in self.schema.edge_types.items():
            source = self._sources[name]
            mode, reason = self._access_mode(name)
            entry = {
                "count": self.edge_count(name),
                "tail": edge.tail_type,
                "head": edge.head_type,
                "directed": source.directed,
                "mode": mode,
                "random_access": mode == "virtual",
                "reason": reason,
                "properties": self.edge_property_names(name),
            }
            appended = self._appended_edges(name)[0].size
            if appended:
                entry["planted"] = {
                    "start": source.num_edges,
                    "count": int(appended),
                }
            edges[name] = entry
        nodes = {
            name: {
                "count": self.node_counts[name],
                "properties": self.node_property_names(name),
            }
            for name in self.schema.node_types
        }
        return {"nodes": nodes, "edges": edges}
