"""Generation result: the final property graph.

The engine's output bundles the paper's storage model — Property Tables
per ``<type, property>`` and Edge Tables per edge type — together with
the match diagnostics, so experiments can inspect how well each
requested joint distribution was realised.
"""

from __future__ import annotations

import numpy as np

__all__ = ["PropertyGraph"]


class PropertyGraph:
    """A generated property graph.

    Attributes
    ----------
    schema:
        the source :class:`~repro.core.schema.Schema`.
    node_counts:
        dict node type -> instance count.
    node_properties:
        dict ``"Type.prop"`` -> :class:`~repro.tables.PropertyTable`.
    edge_tables:
        dict edge type -> :class:`~repro.tables.EdgeTable` with *final*
        node ids (matching applied).
    edge_properties:
        dict ``"Edge.prop"`` -> :class:`~repro.tables.PropertyTable`
        over edge ids.
    match_results:
        dict edge type -> matcher result (or None for random matching).
    seed:
        the root seed the graph was generated from.
    spool:
        the spool a batch run filled (``None`` for a graph built by
        hand): a RAM spool's tables are resident, a disk spool's are
        :class:`~repro.io.spool.SpooledPropertyTable` /
        :class:`~repro.io.spool.SpooledEdgeTable` — same streaming
        interface, bounded memory — which :meth:`materialize` loads
        for global consumers (validation, joint diagnostics).
    """

    def __init__(self, schema, seed, spool=None):
        self.schema = schema
        self.seed = seed
        self.spool = spool
        self.node_counts = {}
        self.node_properties = {}
        self.edge_tables = {}
        self.edge_properties = {}
        self.match_results = {}

    # -- lookups -----------------------------------------------------------

    def node_property(self, type_name, prop_name):
        """PT of a node property."""
        key = f"{type_name}.{prop_name}"
        if key not in self.node_properties:
            raise KeyError(f"no node property table {key!r}")
        return self.node_properties[key]

    def edge_property(self, edge_name, prop_name):
        """PT of an edge property."""
        key = f"{edge_name}.{prop_name}"
        if key not in self.edge_properties:
            raise KeyError(f"no edge property table {key!r}")
        return self.edge_properties[key]

    def edges(self, edge_name):
        """Final ET of an edge type."""
        if edge_name not in self.edge_tables:
            raise KeyError(f"no edge table {edge_name!r}")
        return self.edge_tables[edge_name]

    def num_nodes(self, type_name):
        if type_name not in self.node_counts:
            raise KeyError(f"no node type {type_name!r}")
        return self.node_counts[type_name]

    def num_edges(self, edge_name):
        return len(self.edges(edge_name))

    # -- views -------------------------------------------------------------

    def node_records(self, type_name, limit=None):
        """Iterate node instances as dicts (id + properties)."""
        count = self.num_nodes(type_name)
        stop = count if limit is None else min(limit, count)
        prop_names = [
            p.name
            for p in self.schema.node_type(type_name).properties
        ]
        columns = {
            name: self.node_property(type_name, name).values
            for name in prop_names
        }
        for i in range(stop):
            record = {"id": i}
            for name in prop_names:
                record[name] = columns[name][i]
            yield record

    def edge_records(self, edge_name, limit=None):
        """Iterate edge instances as dicts (id, tail, head + properties)."""
        table = self.edges(edge_name)
        stop = len(table) if limit is None else min(limit, len(table))
        prop_names = [
            p.name for p in self.schema.edge_type(edge_name).properties
        ]
        columns = {
            name: self.edge_property(edge_name, name).values
            for name in prop_names
        }
        for i in range(stop):
            record = {
                "id": i,
                "tail": int(table.tails[i]),
                "head": int(table.heads[i]),
            }
            for name in prop_names:
                record[name] = columns[name][i]
            yield record

    def observed_joint(self, edge_name):
        """Empirical joint of the correlated property over this edge type.

        Only defined for edges declared with a (monopartite)
        correlation; returns a
        :class:`~repro.stats.JointDistribution` in the category order
        used by the matcher.
        """
        from ..stats import empirical_joint

        edge = self.schema.edge_type(edge_name)
        if edge.correlation is None or edge.correlation.head_property:
            raise ValueError(
                f"edge {edge_name!r} has no monopartite correlation"
            )
        table = self.edges(edge_name)
        pt = self.node_property(
            edge.tail_type, edge.correlation.tail_property
        )
        codes, _ = pt.codes()
        return empirical_joint(
            table.tails, table.heads, codes, k=int(codes.max()) + 1
        )

    def materialize(self):
        """A plain in-memory graph with every table resident —
        spooled tables loaded, overlays resolved, virtual ones
        computed (tables that already are resident are shared)."""
        graph = PropertyGraph(self.schema, self.seed)
        graph.node_counts.update(self.node_counts)
        graph.match_results.update(self.match_results)
        for key, table in self.node_properties.items():
            graph.node_properties[key] = table.to_property_table()
        for key, table in self.edge_tables.items():
            graph.edge_tables[key] = table.to_edge_table()
        for key, table in self.edge_properties.items():
            graph.edge_properties[key] = table.to_property_table()
        return graph

    def cleanup(self):
        """Release the spool: a disk spool's directory is deleted
        (invalidating its spooled tables); a RAM spool holds nothing
        to release."""
        if self.spool is not None:
            self.spool.cleanup()

    def summary(self):
        """Counts per type — a quick shape check."""
        return {
            "nodes": dict(self.node_counts),
            "edges": {
                name: len(table)
                for name, table in self.edge_tables.items()
            },
        }

    def __repr__(self):
        nodes = ", ".join(
            f"{k}={v}" for k, v in sorted(self.node_counts.items())
        )
        edges = ", ".join(
            f"{k}={len(v)}" for k, v in sorted(self.edge_tables.items())
        )
        return f"PropertyGraph({nodes}; {edges})"
