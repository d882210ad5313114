"""JSON-lines export: one record per node/edge instance.

The record-oriented view (ids joined with all their properties) that
document stores and streaming loaders expect.

Records are emitted in fixed-size id-range chunks through the
vectorised encoders of :mod:`repro.io.chunks` — numeric, bool, float
and datetime columns never touch per-row ``json.dumps`` — while
remaining byte-identical to the historical one-``dumps``-per-record
output (pinned by ``tests/golden/``).  JSONL is also the
null-preserving table format: ``write_property_table_jsonl`` /
``read_property_table_jsonl`` round-trip ``None`` and NaN exactly,
which CSV cannot.
"""

from __future__ import annotations

import json
from itertools import islice
from pathlib import Path

import numpy as np

from ..tables import EdgeTable, PropertyTable
from .chunks import (
    DEFAULT_CHUNK_SIZE,
    format_json_records_chunk,
    id_strings,
    json_encode_column,
    open_text,
    table_stem,
    write_chunks,
)

__all__ = [
    "write_nodes_jsonl",
    "write_edges_jsonl",
    "export_graph_jsonl",
    "write_property_table_jsonl",
    "read_property_table_jsonl",
    "write_edge_table_jsonl",
    "read_edge_table_jsonl",
]


def _records_job(keys, edges, tables, lo, hi):
    """Format one record chunk.

    A record is the id, the endpoints of ``edges`` (``None`` for node
    and property-table records) and one value per property table;
    every table pages its own ``[lo, hi)`` rows through ``read_range``.
    """
    columns = [table.read_range(lo, hi) for table in tables]
    if edges is not None:
        columns[:0] = edges.read_range(lo, hi)
    encoded = [id_strings(lo, hi)] + [
        json_encode_column(column) for column in columns
    ]
    return format_json_records_chunk(keys, encoded)


def write_nodes_jsonl(graph, type_name, path,
                      chunk_size=DEFAULT_CHUNK_SIZE, compress=None):
    """Write all instances of a node type as JSON lines."""
    prop_names = [
        p.name for p in graph.schema.node_type(type_name).properties
    ]
    tables = [
        graph.node_property(type_name, name) for name in prop_names
    ]
    return write_chunks(
        path, compress, "", _records_job,
        (["id"] + prop_names, None, tables),
        graph.num_nodes(type_name), chunk_size,
    )


def write_edges_jsonl(graph, edge_name, path,
                      chunk_size=DEFAULT_CHUNK_SIZE, compress=None):
    """Write all instances of an edge type as JSON lines."""
    edges = graph.edges(edge_name)
    prop_names = [
        p.name for p in graph.schema.edge_type(edge_name).properties
    ]
    tables = [
        graph.edge_property(edge_name, name) for name in prop_names
    ]
    return write_chunks(
        path, compress, "", _records_job,
        (["id", "tail", "head"] + prop_names, edges, tables),
        len(edges), chunk_size,
    )


def export_graph_jsonl(graph, directory, chunk_size=DEFAULT_CHUNK_SIZE,
                       compress=False):
    """Export every type to ``<directory>/<TypeName>.jsonl``."""
    from .streaming import JsonlSink, export_graph

    sink = JsonlSink(directory, chunk_size=chunk_size, compress=compress)
    return export_graph(graph, sink)


# -- table-oriented JSONL (null-preserving round trips) ----------------------


def write_property_table_jsonl(table, path,
                               chunk_size=DEFAULT_CHUNK_SIZE,
                               compress=None):
    """Write a PT as ``{"id": i, "value": v}`` lines.

    Unlike CSV this representation distinguishes ``None`` from ``""``
    and preserves value types (bool, float — NaN included — and
    strings) without a sidecar dtype.
    """
    return write_chunks(
        path, compress, "", _records_job,
        (["id", "value"], None, [table]), len(table), chunk_size,
    )


def write_edge_table_jsonl(table, path, chunk_size=DEFAULT_CHUNK_SIZE,
                           compress=None):
    """Write an ET as ``{"id": i, "tail": t, "head": h}`` lines."""
    return write_chunks(
        path, compress, "", _records_job,
        (["id", "tail", "head"], table, []), len(table), chunk_size,
    )


def _iter_record_chunks(path, chunk_size):
    with open_text(path, "r") as handle:
        while True:
            block = list(islice(handle, chunk_size))
            if not block:
                return
            yield [json.loads(line) for line in block]


def _coerce_values(values, dtype):
    """Build the value array for a JSONL-read column."""
    if dtype is not None:
        dtype = np.dtype(dtype)
        if dtype.kind == "O":
            return np.array(values, dtype=object)
        if dtype.kind == "M":
            return np.asarray(values, dtype=str).astype(dtype)
        return np.asarray(values).astype(dtype)
    # Inference: homogeneous primitive types map to tight dtypes,
    # anything mixed (or containing None) stays an object column.
    if not values:
        return np.empty(0, dtype=np.int64)
    types = {type(v) for v in values}
    if types == {bool}:
        return np.array(values, dtype=bool)
    if types == {int}:
        return np.array(values, dtype=np.int64)
    if types <= {int, float}:
        return np.array(values, dtype=np.float64)
    if types == {str}:
        return np.array(values, dtype=str)
    return np.array(values, dtype=object)


def read_property_table_jsonl(path, name=None, dtype=None,
                              chunk_size=DEFAULT_CHUNK_SIZE):
    """Read a PT written by :func:`write_property_table_jsonl`."""
    path = Path(path)
    values = []
    row = 0
    for records in _iter_record_chunks(path, chunk_size):
        for record in records:
            if record.get("id") != row:
                raise ValueError(
                    f"{path}: non-dense ids (expected {row}, "
                    f"got {record.get('id')})"
                )
            values.append(record["value"])
            row += 1
    return PropertyTable(
        name or table_stem(path), _coerce_values(values, dtype)
    )


def read_edge_table_jsonl(path, name=None, directed=False,
                          num_tail_nodes=None, num_head_nodes=None,
                          chunk_size=DEFAULT_CHUNK_SIZE):
    """Read an ET written by :func:`write_edge_table_jsonl`."""
    path = Path(path)
    tails, heads = [], []
    row = 0
    for records in _iter_record_chunks(path, chunk_size):
        for record in records:
            if record.get("id") != row:
                raise ValueError(
                    f"{path}: non-dense edge ids (expected {row}, "
                    f"got {record.get('id')})"
                )
            tails.append(record["tail"])
            heads.append(record["head"])
            row += 1
    return EdgeTable(
        name or table_stem(path),
        np.array(tails, dtype=np.int64),
        np.array(heads, dtype=np.int64),
        num_tail_nodes=num_tail_nodes,
        num_head_nodes=num_head_nodes,
        directed=directed,
    )
