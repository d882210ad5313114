"""Bounded overlays: planted worlds without rewriting the base tables.

Injection never mutates generated tables.  Instead each affected table
is wrapped:

* :class:`OverlayEdgeTable` — the base edge table plus the appended
  plant edges as a contiguous tail block (``[m, m+e)``);
* :class:`OverlayPropertyTable` — the base node-property column with a
  sparse set of forced values patched in;
* :class:`AppendedPropertyTable` — an edge-property column extended
  with the deterministic values of the appended edge ids.

All three implement the table protocol of :mod:`repro.tables.ranged`
— ``read_range`` over their base's ``read_range`` — and inherit
``iter_chunks`` / ``values`` / ``tails`` / ``heads`` from it, so they
stack over resident and spooled bases alike.  They pickle (the overlay
arrays are tiny; spooled bases already pickle as paths), so
``--backend process`` export formatting keeps working over planted
worlds.

:class:`PlantedGraph` assembles the wrapped tables into a
:class:`~repro.core.result.PropertyGraph` subclass that carries the
:class:`~repro.planting.plant.PlantPlan` as ``.plan``.
"""

from __future__ import annotations

import numpy as np

from ..core.result import PropertyGraph
from ..tables import value_codes
from ..tables.ranged import SCAN_ROWS, EdgeRows, PropertyRows
from .plant import plan_plants

__all__ = [
    "AppendedPropertyTable",
    "OverlayEdgeTable",
    "OverlayPropertyTable",
    "PlantedGraph",
    "plant_world",
    "planted_graph",
]


class OverlayEdgeTable(EdgeRows):
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

    def read_range(self, start, stop):
        start, stop = self.check_range(start, stop)
        m = self._base_len
        parts_t, parts_h = [], []
        if start < m:
            tails, heads = self._base.read_range(start, min(stop, m))
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

    def degrees(self):
        """Undirected degree vector (monopartite only)."""
        n = self.num_nodes
        counts = np.zeros(n, dtype=np.int64)
        for _, tails, heads in self.iter_chunks(SCAN_ROWS):
            counts += np.bincount(tails, minlength=n)
            counts += np.bincount(heads, minlength=n)
        return counts


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


class OverlayPropertyTable(PropertyRows):
    """Base property column with sparse forced values patched in."""

    def __init__(self, base, ids, values):
        self._base = base
        self._ids = np.asarray(ids, dtype=np.int64)
        self._values = np.asarray(values)
        self.name = base.name
        self.dtype = np.promote_types(base.dtype, self._values.dtype)

    def __len__(self):
        return len(self._base)

    def __repr__(self):
        return (
            f"OverlayPropertyTable(name={self.name!r}, "
            f"n={len(self)}, overrides={self._ids.size})"
        )

    def read_range(self, start, stop):
        start, stop = self.check_range(start, stop)
        patched = apply_overrides(
            np.asarray(self._base.read_range(start, stop)), start,
            self._ids, self._values,
        )
        if patched.dtype != self.dtype:
            patched = patched.astype(self.dtype)
        return patched

    def gather(self, instance_ids):
        wanted = np.asarray(instance_ids, dtype=np.int64)
        out = np.asarray(self._base.gather(wanted))
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
        """Category codes (audit path): ``PropertyTable.codes``'s."""
        codes, categories, _ = value_codes(self.read_range(0, len(self)))
        return codes, categories


class AppendedPropertyTable(PropertyRows):
    """Edge-property column extended over the appended edge ids."""

    def __init__(self, base, extra_values):
        self._base = base
        self._extra = np.asarray(extra_values)
        self.name = base.name
        self.dtype = np.promote_types(base.dtype, self._extra.dtype)
        self._base_len = len(base)

    def __len__(self):
        return self._base_len + self._extra.size

    def __repr__(self):
        return (
            f"AppendedPropertyTable(name={self.name!r}, "
            f"base={self._base_len}, extra={self._extra.size})"
        )

    def read_range(self, start, stop):
        start, stop = self.check_range(start, stop)
        m = self._base_len
        parts = []
        if start < m:
            parts.append(np.asarray(
                self._base.read_range(start, min(stop, m))
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

    def gather(self, instance_ids):
        ids = np.asarray(instance_ids, dtype=np.int64)
        out = np.empty(ids.size, dtype=self.dtype)
        base_mask = ids < self._base_len
        if base_mask.any():
            out[base_mask] = self._base.gather(ids[base_mask])
        if (~base_mask).any():
            out[~base_mask] = self._extra[
                ids[~base_mask] - self._base_len
            ]
        return out


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
        the unplanted graph (a batch result, or a served world).

    The inherited ``materialize()`` returns a plain in-memory
    ``PropertyGraph`` with every overlay resolved; ``cleanup()``
    forwards to a batch base's spool.
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

    def cleanup(self):
        self.base.cleanup()


def planted_graph(base, plan):
    """Wrap ``base`` with ``plan``; no-op pass-through for empty plans."""
    if not plan.plants:
        return base
    return PlantedGraph(base, plan)


def plant_world(base, plants, seed):
    """``(planted graph, plan)``: ``plants`` planned over the generated
    world ``base`` and laid over it — the one planting wiring of the
    exporters and the serving layer."""
    plan = plan_plants(
        list(plants), base.node_counts,
        {name: len(table) for name, table in base.edge_tables.items()},
        seed,
    )
    return planted_graph(base, plan), plan
