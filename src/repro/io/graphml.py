"""Minimal GraphML export (graph-database import format).

Neo4j, Sparksee and most property-graph tools ingest GraphML; this
writer emits a single monopartite edge type with node and edge
properties as GraphML keys.

Nodes and edges are written in id-range chunks: each chunk fills a
precomputed per-row ``%``-template from batch-escaped columns
(:func:`repro.io.chunks.xml_escape_column`), byte-identical to the
historical per-element ``xml.sax.saxutils.escape`` loop but without
per-row Python overhead or whole-document buffering.
"""

from __future__ import annotations

from pathlib import Path

from ..tables.ranged import chunk_bounds
from .chunks import (
    DEFAULT_CHUNK_SIZE,
    id_strings,
    open_text,
    stringify_column,
    xml_escape_column,
)

__all__ = ["write_graphml"]

_HEADER = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">\n'
)


def _type_tag(values):
    if values.dtype.kind in ("i", "u"):
        return "long"
    if values.dtype.kind == "f":
        return "double"
    if values.dtype.kind == "b":
        return "boolean"
    return "string"


def _element_template(open_line, props, prefix, close_line):
    """Per-row template: opening tag, one ``<data>`` line per
    property, closing tag.  Only the ``%s`` slots format — literal
    ``%`` in property names is escaped."""
    lines = [open_line]
    for name in props:
        key = f"{prefix}_{name}".replace("%", "%%")
        lines.append(f'      <data key="{key}">%s</data>\n')
    lines.append(close_line)
    return "".join(lines)


def _escaped_columns(lo, hi, props):
    return [
        xml_escape_column(stringify_column(values[lo:hi]))
        for values in props.values()
    ]


def write_graphml(result, edge_name, path,
                  chunk_size=DEFAULT_CHUNK_SIZE, compress=None):
    """Write one edge type (and its endpoint node type) as GraphML."""
    edge = result.schema.edge_type(edge_name)
    if not result.edges(edge_name).is_bipartite \
            and edge.tail_type != edge.head_type:
        raise ValueError("write_graphml expects a monopartite edge type")
    table = result.edges(edge_name)
    node_type = result.schema.node_type(edge.tail_type)
    path = Path(path)

    node_props = {
        prop.name: result.node_property(edge.tail_type, prop.name).values
        for prop in node_type.properties
    }
    edge_props = {
        prop.name: result.edge_property(edge_name, prop.name).values
        for prop in edge.properties
    }

    with open_text(path, "w", compress) as handle:
        handle.write(_HEADER)
        for name, values in node_props.items():
            handle.write(
                f'  <key id="n_{name}" for="node" attr.name="{name}" '
                f'attr.type="{_type_tag(values)}"/>\n'
            )
        for name, values in edge_props.items():
            handle.write(
                f'  <key id="e_{name}" for="edge" attr.name="{name}" '
                f'attr.type="{_type_tag(values)}"/>\n'
            )
        direction = "directed" if table.directed else "undirected"
        handle.write(
            f'  <graph id="{edge_name}" edgedefault="{direction}">\n'
        )
        node_template = _element_template(
            '    <node id="n%s">\n', node_props, "n",
            "    </node>\n",
        )
        count = result.num_nodes(edge.tail_type)
        for lo, hi in chunk_bounds(edge.tail_type, count, chunk_size):
            columns = [id_strings(lo, hi)]
            columns += _escaped_columns(lo, hi, node_props)
            handle.write(
                "".join(node_template % row for row in zip(*columns))
            )
        edge_template = _element_template(
            '    <edge id="e%s" source="n%s" target="n%s">\n',
            edge_props, "e", "    </edge>\n",
        )
        for lo, tails, heads in table.iter_chunks(chunk_size):
            hi = lo + len(tails)
            columns = [
                id_strings(lo, hi),
                list(map(str, tails.tolist())),
                list(map(str, heads.tolist())),
            ]
            columns += _escaped_columns(lo, hi, edge_props)
            handle.write(
                "".join(edge_template % row for row in zip(*columns))
            )
        handle.write("  </graph>\n</graphml>\n")
    return path
