"""The virtual graph: random-access queries straight from a recipe.

A :class:`VirtualGraph` is the second store under the one task body
(DESIGN.md §3): where a batch run keeps
:func:`~repro.core.tasks.apply_task`'s output in its spool's tables —
resident in memory, shard files out of core — serving drives the same plan
through the same ``apply_task`` and keeps *virtual* tables
(:mod:`repro.serve.tables`) in ``.graph`` — tables that hold no rows
and answer ``read_range`` / ``gather`` by recomputing exactly the rows
a full :meth:`~repro.core.engine.GraphGenerator.generate` run would
have produced.  Byte-identical, because every stage is a pure function
of ``(seed, indices)``:

* **node properties** — the PG protocol's ``properties_of`` via
  :func:`~repro.core.tasks.property_values_at`, with intra-type
  dependencies gathered at the queried ids only;
* **edges** — random-access structure generators re-emit any edge page
  through a :mod:`~repro.core.structures` handle, relabelled by the
  permutation maps every store uses
  (:class:`~repro.core.structures.MatchedEdges`) — the O(nodes) term,
  spilled and memory-mapped, so query-time allocation stays
  O(page + chunk);
* **edge properties** — the same PG kernel, with ``tail.x``/``head.x``
  dependencies *recomputed* at the page's endpoint ids
  (:func:`~repro.core.tasks.dep_slices`);
* **neighbourhoods / edge-existence** — the bounded page scan of
  :class:`~repro.tables.ranged.EdgeRows` (O(m) compute, O(chunk)
  memory), or for a spooled table below, its spilled
  :class:`~repro.serve.tables.NeighbourIndex` (O(log m + degree)).

The two global stages the sharded executor has fall back to a
documented **spooled** mode, decided by the same code: a sequential
structure generator's table is materialised once, and a correlated
(SBM-Part) matching's final table computed once at first touch; both
are spilled and paged from disk, with a neighbourhood index beside
them.  :meth:`VirtualGraph.classification`
says which mode each edge type is in and why — the protocol flag
surfaced to clients.

Planted scenarios (a ``plants:`` block in the recipe) are served
through the exporters' own overlay,
:func:`~repro.planting.overlay.plant_world` — the call
:func:`~repro.scenarios.compile.run_scenario` makes — so the appended
edge block, the forced node attributes and the dependent edge
properties over the appended ids are the exported planted world's,
byte for byte, by being the same code.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from ..core.dependency import build_task_graph
from ..core.result import PropertyGraph
from ..core.tasks import Store, apply_task, is_correlated, walk
from ..io.spool import TableSpool
from ..planting import plant_world
from .tables import DeferredEdges, PageMemo, VirtualPropertyTable

__all__ = ["VirtualGraph"]


class _VirtualStore(Store):
    """Tables that hold no rows: structure handles are opened now and
    every table is lazy."""

    def __init__(self, spool, memo, access_mode):
        self._spool = spool
        self._memo = memo
        self._access_mode = access_mode

    def structure(self, name, open_handle):
        return open_handle(
            self._spool.shard_rows, self._spool.spiller(f"structure.{name}")
        )

    def properties(self, name, spec, count, deps, task_id, seed):
        return VirtualPropertyTable(
            name, spec, count, deps, task_id, seed, self._memo
        )

    def edges(self, name, structure, id_space, build):
        # The matching state is built at first touch, and always
        # spilled, so query-time allocation stays O(page + chunk); so
        # is a spooled table's neighbourhood index.
        spill = self._spool.spiller(f"match.{name}")
        spooled = self._access_mode(name)[0] == "spooled"
        return DeferredEdges(
            structure, id_space, lambda: build(spill)[0], self._memo,
            (spill, self._spool.shard_rows) if spooled else None,
        ), None


class VirtualGraph:
    """Random-access façade over a compiled scenario (or raw schema).

    The constructor resolves everything that is metadata — node
    counts, structure handles (a sequential generator runs and spills
    here), the plant plan — and lays the lazy tables of ``.graph``
    over it; :meth:`warm` forces the one thing left, the matching
    state of each edge type, which a query otherwise builds at first
    touch.  Every query is a bounds check plus ``read_range`` /
    ``gather`` on ``.graph``'s tables.

    Parameters
    ----------
    schema, scale, seed:
        as for the engines.
    spool_dir:
        where matching maps and spooled fallbacks land (a temporary
        directory by default; :meth:`close` removes it when owned).
    chunk_rows:
        page/scan granularity — the memory unit of every query.
    plants:
        the recipe's plant declarations, overlaid as the exporters do.
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
        self._memo = PageMemo()
        self._structures = {}
        self._base = PropertyGraph(self.schema, self.seed)
        self.node_counts = self._base.node_counts
        store = _VirtualStore(self._spool, self._memo, self._access_mode)
        try:
            walk(
                build_task_graph(
                    self.schema, self.scale
                ).topological_order(),
                lambda task: apply_task(
                    task, self.schema, self.scale, self.seed,
                    self._base, self._structures, store,
                ),
                self._base,
            )
            #: the served world: the virtual tables, under the plant
            #: overlay when the recipe declares plants.
            self.graph, self.plan = self._base, None
            if plants:
                self.graph, self.plan = plant_world(
                    self._base, plants, self.seed
                )
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

    def warm(self):
        """Build every edge type's matching state up front (server
        start-up)."""
        for table in self._base.edge_tables.values():
            table.resolve()
        return self

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
        # Range-checked before the int64 cast, so an id past int64 is
        # out of range like any other.
        count = self.node_count(type_name)
        ids = np.asarray(ids)
        if ids.size and (ids.min() < 0 or ids.max() >= count):
            raise IndexError(
                f"node ids out of range [0, {count}) for "
                f"{type_name!r}"
            )
        return np.ascontiguousarray(ids, dtype=np.int64)

    def node_properties_of(self, type_name, prop_name, ids):
        """One property column at arbitrary node ids (O(page)), plant-
        forced attributes included — the exported column's rows."""
        ids = self._check_node_ids(type_name, ids)
        return self.graph.node_property(type_name, prop_name).gather(ids)

    def node_records(self, type_name, ids):
        """All property columns at the given ids, in schema order."""
        ids = self._check_node_ids(type_name, ids)
        with self._memo.page(ids):
            return {
                name: self.graph.node_property(
                    type_name, name
                ).gather(ids)
                for name in self.node_property_names(type_name)
            }

    # -- edge queries ------------------------------------------------------

    def edge_count(self, name):
        """Total edges, including the appended plant block (if any)."""
        return len(self.graph.edges(name))

    def base_edge_count(self, name):
        """Generated (pre-injection) edges only."""
        return len(self._base.edges(name))

    def edge_property_names(self, name):
        return [
            prop.name
            for prop in self.schema.edge_type(name).properties
        ]

    def edges_range(self, name, lo, hi):
        """Final ``(tails, heads)`` of edge ids ``[lo, hi)``.

        Ids past the generated block page into the appended plant
        edges, exactly like the exported overlay table.
        """
        return self.graph.edges(name).read_range(lo, hi)

    def edge_properties_range(self, name, prop_name, lo, hi):
        """One edge-property column over edge ids ``[lo, hi)``.

        Endpoint dependencies (``tail.x`` / ``head.x``) are recomputed
        at the page's endpoint ids — random access end to end.
        """
        return self.graph.edge_property(name, prop_name).read_range(
            lo, hi
        )

    def edge_records(self, name, lo, hi):
        """Endpoints plus every property column for a page of edges."""
        edges = self.graph.edges(name)
        lo, hi = edges.check_range(lo, hi)
        with self._memo.page((lo, hi)):
            tails, heads = edges.read_range(lo, hi)
            return {"tail": tails, "head": heads, **{
                prop: self.graph.edge_property(name, prop).read_range(
                    lo, hi
                )
                for prop in self.edge_property_names(name)
            }}

    def neighbors_of(self, name, node_id, direction="both"):
        """Neighbours of one (final) node id over edge type ``name``:
        :meth:`~repro.tables.ranged.EdgeRows.neighbors_of` on the final
        edges (a spooled type's index, else the page scan), so injected
        plant edges are seen and a node id outside the endpoint type's
        range is an ``IndexError``."""
        return self.graph.edges(name).neighbors_of(
            node_id, direction, self.chunk_rows
        )

    def edge_exists(self, name, src, dst):
        """Does the final edge ``src -> dst`` exist (either orientation
        for undirected edge types)?  Sees the appended plant block
        too, so injected template edges are visible."""
        return self.graph.edges(name).edge_exists(src, dst, self.chunk_rows)

    # -- metadata ----------------------------------------------------------

    def _access_mode(self, name):
        """``(mode, reason)`` of one edge type — ``"virtual"`` pages
        are re-derived from the seed, ``"spooled"`` pages are read from
        a table computed once (the two documented global stages)."""
        if is_correlated(self.schema.edge_type(name)):
            return "spooled", (
                "correlated matching is a global stage; the matched "
                "table is computed once and paged from the disk spool"
            )
        if self._structures[name].random_access:
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
            mode, reason = self._access_mode(name)
            total, base = self.edge_count(name), self.base_edge_count(name)
            entry = {
                "count": total,
                "tail": edge.tail_type,
                "head": edge.head_type,
                "directed": self._structures[name].directed,
                "mode": mode,
                "random_access": mode == "virtual",
                "reason": reason,
                "properties": self.edge_property_names(name),
            }
            if total > base:
                entry["planted"] = {"start": base, "count": total - base}
            edges[name] = entry
        nodes = {
            name: {
                "count": self.node_counts[name],
                "properties": self.node_property_names(name),
            }
            for name in self.schema.node_types
        }
        return {"nodes": nodes, "edges": edges}
