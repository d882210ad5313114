"""Bounded overlays: planted worlds without rewriting the base tables.

Injection never mutates generated tables.  Instead each affected table
is wrapped:

* :class:`OverlayEdgeTable` — the base edge table plus the appended
  plant edges as a contiguous tail block (``[m, m+e)``);
* :class:`OverlayPropertyTable` — the base node-property column with a
  sparse set of forced values patched in;
* :class:`AppendedPropertyTable` — an edge-property column extended
  with the deterministic values of the appended edge ids.

All three speak the exact table dialect the streaming exporters and
the sharded export pool consume — ``read_range`` (the dispatch hook of
:func:`repro.io.chunks.property_range` / ``edge_range``),
``iter_chunks`` with global chunk starts, ``values`` / ``tails`` /
``heads`` for whole-table consumers, ``gather`` — and they pickle
(the overlay arrays are tiny; spooled bases already pickle as paths),
so ``--backend process`` export formatting keeps working over planted
worlds.

:class:`PlantedGraph` assembles the wrapped tables into a
:class:`~repro.core.result.PropertyGraph` subclass that carries the
:class:`~repro.planting.plant.PlantPlan` as ``.plan``.
"""

from __future__ import annotations

import numpy as np

from ..core.result import PropertyGraph
from ..io.chunks import edge_range, property_range

__all__ = [
    "AppendedPropertyTable",
    "OverlayEdgeTable",
    "OverlayPropertyTable",
    "PlantedGraph",
    "planted_graph",
]


def _iter_chunk_starts(name, length, chunk_size, start, stop):
    chunk_size = int(chunk_size)
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    start = int(start)
    stop = length if stop is None else min(int(stop), length)
    if not 0 <= start <= length:
        raise IndexError(
            f"{name!r}: start {start} out of range [0, {length}]"
        )
    for lo in range(start, stop, chunk_size):
        yield lo, min(lo + chunk_size, stop)


class _LazyValues:
    """Array-like view over a table's ``read_range`` (the slice of the
    column protocol the chunked writers actually use)."""

    def __init__(self, table, dtype):
        self._table = table
        self.dtype = dtype

    def __len__(self):
        return len(self._table)

    def __getitem__(self, item):
        if isinstance(item, slice):
            start, stop, step = item.indices(len(self._table))
            values = self._table.read_range(start, stop)
            return values if step == 1 else values[::step]
        index = int(item)
        if index < 0:
            index += len(self._table)
        return self._table.read_range(index, index + 1)[0]

    def __array__(self, dtype=None, copy=None):
        values = self._table.read_range(0, len(self._table))
        return values if dtype is None else values.astype(dtype)

    def __iter__(self):
        for lo, hi in _iter_chunk_starts(
            "values", len(self._table), 65_536, 0, None
        ):
            yield from self._table.read_range(lo, hi)


class OverlayEdgeTable:
    """Base edge table + appended plant edges as ids ``[m, m+e)``."""

    def __init__(self, base, extra_tails, extra_heads):
        self._base = base
        self._extra_tails = np.asarray(extra_tails, dtype=np.int64)
        self._extra_heads = np.asarray(extra_heads, dtype=np.int64)
        self.name = base.name
        self.num_tail_nodes = int(base.num_tail_nodes)
        self.num_head_nodes = int(base.num_head_nodes)
        self.directed = bool(base.directed)
        self._base_len = len(base)

    def __len__(self):
        return self._base_len + self._extra_tails.size

    def __repr__(self):
        return (
            f"OverlayEdgeTable(name={self.name!r}, "
            f"base={self._base_len}, extra={self._extra_tails.size})"
        )

    @property
    def base(self):
        return self._base

    @property
    def num_edges(self):
        return len(self)

    @property
    def num_base_edges(self):
        return self._base_len

    @property
    def is_bipartite(self):
        return self.num_tail_nodes != self.num_head_nodes

    @property
    def num_nodes(self):
        if self.is_bipartite:
            raise ValueError(
                f"ET {self.name!r} is bipartite; use num_tail_nodes / "
                "num_head_nodes"
            )
        return self.num_tail_nodes

    def read_range(self, start, stop):
        start, stop = int(start), int(stop)
        if not 0 <= start <= stop <= len(self):
            raise IndexError(
                f"ET {self.name!r}: range [{start}, {stop}) out of "
                f"bounds [0, {len(self)})"
            )
        m = self._base_len
        parts_t, parts_h = [], []
        if start < m:
            lo, hi = start, min(stop, m)
            tails, heads = edge_range(self._base, lo, hi)
            parts_t.append(np.asarray(tails, dtype=np.int64))
            parts_h.append(np.asarray(heads, dtype=np.int64))
        if stop > m:
            lo, hi = max(start, m) - m, stop - m
            parts_t.append(self._extra_tails[lo:hi])
            parts_h.append(self._extra_heads[lo:hi])
        if not parts_t:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy()
        if len(parts_t) == 1:
            return parts_t[0], parts_h[0]
        return np.concatenate(parts_t), np.concatenate(parts_h)

    def iter_chunks(self, chunk_size, start=0, stop=None):
        for lo, hi in _iter_chunk_starts(
            self.name, len(self), chunk_size, start, stop
        ):
            tails, heads = self.read_range(lo, hi)
            yield lo, tails, heads

    @property
    def tails(self):
        return self.read_range(0, len(self))[0]

    @property
    def heads(self):
        return self.read_range(0, len(self))[1]

    def degrees(self):
        """Undirected degree vector (monopartite only)."""
        n = self.num_nodes
        counts = np.zeros(n, dtype=np.int64)
        for _, tails, heads in self.iter_chunks(65_536):
            counts += np.bincount(tails, minlength=n)
            counts += np.bincount(heads, minlength=n)
        return counts

    def to_edge_table(self):
        """Materialise into a plain :class:`~repro.tables.EdgeTable`."""
        from ..tables import EdgeTable

        tails, heads = self.read_range(0, len(self))
        return EdgeTable(
            self.name, tails, heads,
            num_tail_nodes=self.num_tail_nodes,
            num_head_nodes=self.num_head_nodes,
            directed=self.directed,
        )


def _base_dtype(table):
    dtype = getattr(table, "dtype", None)
    if dtype is not None:
        return np.dtype(dtype)
    return np.asarray(table.values).dtype


def apply_overrides(values, start, ids, override_values):
    """Patch ``values`` (rows ``[start, start+len)``) with the sorted
    override ``(ids, override_values)`` pairs that fall inside it,
    promoting the dtype so wider forced strings never truncate."""
    stop = start + len(values)
    lo = int(np.searchsorted(ids, start))
    hi = int(np.searchsorted(ids, stop))
    if lo == hi:
        return values
    dtype = np.promote_types(values.dtype, override_values.dtype)
    patched = values.astype(dtype, copy=True)
    patched[ids[lo:hi] - start] = override_values[lo:hi]
    return patched


class OverlayPropertyTable:
    """Base property column with sparse forced values patched in."""

    def __init__(self, base, ids, values):
        self._base = base
        self._ids = np.asarray(ids, dtype=np.int64)
        self._values = np.asarray(values)
        self.name = base.name
        self.dtype = np.promote_types(
            _base_dtype(base), self._values.dtype
        )

    def __len__(self):
        return len(self._base)

    def __repr__(self):
        return (
            f"OverlayPropertyTable(name={self.name!r}, "
            f"n={len(self)}, overrides={self._ids.size})"
        )

    @property
    def base(self):
        return self._base

    def read_range(self, start, stop):
        start, stop = int(start), int(stop)
        values = np.asarray(property_range(self._base, start, stop))
        patched = apply_overrides(
            values, start, self._ids, self._values
        )
        if patched.dtype != self.dtype:
            patched = patched.astype(self.dtype)
        return patched

    def iter_chunks(self, chunk_size, start=0, stop=None):
        for lo, hi in _iter_chunk_starts(
            self.name, len(self), chunk_size, start, stop
        ):
            yield lo, self.read_range(lo, hi)

    @property
    def values(self):
        return _LazyValues(self, self.dtype)

    def gather(self, instance_ids):
        wanted = np.asarray(instance_ids, dtype=np.int64)
        if hasattr(self._base, "gather"):
            out = np.asarray(self._base.gather(wanted))
        else:
            out = np.asarray(self._base.values)[wanted]
        pos = np.searchsorted(self._ids, wanted)
        pos = np.minimum(pos, self._ids.size - 1)
        hit = self._ids[pos] == wanted
        if hit.any():
            out = out.astype(
                np.promote_types(out.dtype, self._values.dtype),
                copy=True,
            )
            out[hit] = self._values[pos[hit]]
        return out

    def codes(self):
        """Category codes (audit path); mirrors ``PropertyTable``."""
        values = self.read_range(0, len(self))
        categories, codes = np.unique(values, return_inverse=True)
        return codes.astype(np.int64), categories

    def to_property_table(self):
        from ..tables import PropertyTable

        return PropertyTable(self.name, self.read_range(0, len(self)))


class AppendedPropertyTable:
    """Edge-property column extended over the appended edge ids."""

    def __init__(self, base, extra_values):
        self._base = base
        self._extra = np.asarray(extra_values)
        self.name = base.name
        self.dtype = np.promote_types(
            _base_dtype(base), self._extra.dtype
        )
        self._base_len = len(base)

    def __len__(self):
        return self._base_len + self._extra.size

    def __repr__(self):
        return (
            f"AppendedPropertyTable(name={self.name!r}, "
            f"base={self._base_len}, extra={self._extra.size})"
        )

    def read_range(self, start, stop):
        start, stop = int(start), int(stop)
        if not 0 <= start <= stop <= len(self):
            raise IndexError(
                f"PT {self.name!r}: range [{start}, {stop}) out of "
                f"bounds [0, {len(self)})"
            )
        m = self._base_len
        parts = []
        if start < m:
            parts.append(np.asarray(
                property_range(self._base, start, min(stop, m))
            ))
        if stop > m:
            parts.append(self._extra[max(start, m) - m: stop - m])
        if not parts:
            return np.empty(0, dtype=self.dtype)
        part = (
            parts[0] if len(parts) == 1 else np.concatenate([
                p.astype(self.dtype) for p in parts
            ])
        )
        if part.dtype != self.dtype:
            part = part.astype(self.dtype)
        return part

    def iter_chunks(self, chunk_size, start=0, stop=None):
        for lo, hi in _iter_chunk_starts(
            self.name, len(self), chunk_size, start, stop
        ):
            yield lo, self.read_range(lo, hi)

    @property
    def values(self):
        return _LazyValues(self, self.dtype)

    def gather(self, instance_ids):
        ids = np.asarray(instance_ids, dtype=np.int64)
        out = np.empty(ids.size, dtype=self.dtype)
        base_mask = ids < self._base_len
        if base_mask.any():
            base_ids = ids[base_mask]
            if hasattr(self._base, "gather"):
                got = self._base.gather(base_ids)
            else:
                got = np.asarray(self._base.values)[base_ids]
            out[base_mask] = got
        if (~base_mask).any():
            out[~base_mask] = self._extra[
                ids[~base_mask] - self._base_len
            ]
        return out

    def to_property_table(self):
        from ..tables import PropertyTable

        return PropertyTable(self.name, self.read_range(0, len(self)))


def _appended_edge_property_values(schema, edge_name, prop,
                                   extra_tails, extra_heads,
                                   node_properties, computed, base_m,
                                   seed):
    """Deterministic values of one edge property over the appended ids.

    Uses the same random-access kernel as the serving layer
    (:func:`~repro.core.tasks.property_values_at` on the
    ``property:<edge>.<prop>`` task stream), so the appended rows are
    exactly what a full-size generation run would have produced at
    those edge ids.  ``tail.<p>`` / ``head.<p>`` dependencies gather
    from the *overlay* node columns, so forced plant attributes feed
    dependent edge properties.
    """
    from ..core.tasks import property_values_at

    edge = schema.edge_type(edge_name)
    deps = []
    for dep in prop.depends_on:
        side, owner, name = edge.dependency_ref(dep)
        if side is None:
            deps.append(computed[name])
        else:
            deps.append(node_properties[f"{owner}.{name}"].gather(
                extra_tails if side == "tail" else extra_heads
            ))
    ids = np.arange(
        base_m, base_m + extra_tails.size, dtype=np.int64
    )
    return property_values_at(
        prop.generator, f"property:{edge_name}.{prop.name}", seed,
        ids, dep_slices=deps,
    )


class PlantedGraph(PropertyGraph):
    """A generated world with its plant plan applied as overlays.

    Behaves like the base :class:`~repro.core.result.PropertyGraph`
    everywhere (exports, audits, summaries) but additionally carries:

    ``plan``
        the :class:`~repro.planting.plant.PlantPlan`;
    ``base``
        the unplanted graph (in-memory or sharded).

    ``materialize()`` returns a plain in-memory ``PropertyGraph`` with
    every overlay resolved; ``cleanup()`` forwards to a sharded base.
    """

    def __init__(self, base, plan):
        super().__init__(base.schema, base.seed)
        self.base = base
        self.plan = plan
        self.node_counts = dict(base.node_counts)
        self.match_results = dict(
            getattr(base, "match_results", {}) or {}
        )
        for key, table in base.node_properties.items():
            override = plan.overrides.get(key)
            self.node_properties[key] = (
                OverlayPropertyTable(table, *override)
                if override is not None else table
            )
        for name, table in base.edge_tables.items():
            extra = plan.appended.get(name)
            if extra is None:
                self.edge_tables[name] = table
                continue
            self.edge_tables[name] = OverlayEdgeTable(table, *extra)
        for key, table in base.edge_properties.items():
            edge_name, _, prop_name = key.partition(".")
            if edge_name not in plan.appended:
                self.edge_properties[key] = table
        for name, (extra_tails, extra_heads) in plan.appended.items():
            edge = base.schema.edge_type(name)
            base_m = int(plan.edge_counts[name])
            computed = {}
            for prop in edge.properties:
                extra_values = _appended_edge_property_values(
                    base.schema, name, prop, extra_tails, extra_heads,
                    self.node_properties, computed, base_m, base.seed,
                )
                computed[prop.name] = extra_values
                key = f"{name}.{prop.name}"
                self.edge_properties[key] = AppendedPropertyTable(
                    base.edge_properties[key], extra_values
                )

    def materialize(self):
        """A plain in-memory graph with every overlay resolved."""
        base = self.base
        if hasattr(base, "materialize"):
            base = base.materialize()
        graph = PropertyGraph(self.schema, self.seed)
        graph.node_counts = dict(self.node_counts)
        graph.match_results = dict(self.match_results)
        for key, table in self.node_properties.items():
            if isinstance(table, OverlayPropertyTable):
                graph.node_properties[key] = table.to_property_table()
            else:
                graph.node_properties[key] = base.node_properties[key]
        for name, table in self.edge_tables.items():
            if isinstance(table, OverlayEdgeTable):
                graph.edge_tables[name] = table.to_edge_table()
            else:
                graph.edge_tables[name] = base.edge_tables[name]
        for key, table in self.edge_properties.items():
            if isinstance(table, AppendedPropertyTable):
                graph.edge_properties[key] = table.to_property_table()
            else:
                graph.edge_properties[key] = base.edge_properties[key]
        return graph

    def cleanup(self):
        if hasattr(self.base, "cleanup"):
            self.base.cleanup()


def planted_graph(base, plan):
    """Wrap ``base`` with ``plan``; no-op pass-through for empty plans."""
    if not plan.plants:
        return base
    return PlantedGraph(base, plan)
