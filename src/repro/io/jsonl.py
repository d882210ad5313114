"""JSON-lines export: one record per node/edge instance.

The record-oriented view (ids joined with all their properties) that
document stores and streaming loaders expect.

Records are emitted in fixed-size id-range chunks through the
vectorised encoders of :mod:`repro.io.chunks` — numeric, bool, float
and datetime columns never touch per-row ``json.dumps`` — while
remaining byte-identical to the historical one-``dumps``-per-record
output (pinned by ``tests/golden/``).  The readers page one column
(or the endpoints) back out of a type's record file; unlike CSV they
keep ``None`` and NaN apart from ``""``, and value types without a
sidecar dtype.
"""

from __future__ import annotations

import json

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
    "read_property_table_jsonl",
    "read_edge_table_jsonl",
]


def _records_job(keys, edges, tables, lo, hi):
    """Format one record chunk.

    A record is the id, the endpoints of ``edges`` (``None`` for node
    records) and one value per property table; every table pages its
    own ``[lo, hi)`` rows through ``read_range``.
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


def _read_columns(path, keys):
    """Columns ``keys`` of a record file, in id order (dense ids).

    Lines are parsed one at a time, so the readers' ``chunk_size``
    (their signature is shared with the CSV readers) is not needed."""
    columns = [[] for _ in keys]
    with open_text(path, "r") as handle:
        for row, line in enumerate(handle):
            record = json.loads(line)
            if record.get("id") != row:
                raise ValueError(
                    f"{path}: non-dense ids (expected {row}, "
                    f"got {record.get('id')})"
                )
            for column, key in zip(columns, keys):
                column.append(record[key])
    return columns


def _coerce_values(values, dtype):
    """Build the value array for a JSONL-read column.

    Object columns are filled element by element, so equal-length
    lists (multi-value sets) stay one object per row:

    >>> _coerce_values([[1, 2], [3, 4]], object).shape
    (2,)
    """
    if dtype is not None:
        dtype = np.dtype(dtype)
        if dtype.kind == "O":
            return np.fromiter(values, dtype=object, count=len(values))
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
    return _coerce_values(values, object)


def read_property_table_jsonl(path, name, dtype=None,
                              chunk_size=DEFAULT_CHUNK_SIZE):
    """Read property table ``Type.prop`` — column ``prop`` — from the
    record file of its type."""
    [values] = _read_columns(path, [name.partition(".")[2]])
    return PropertyTable(name, _coerce_values(values, dtype))


def read_edge_table_jsonl(path, name=None, directed=False,
                          num_tail_nodes=None, num_head_nodes=None,
                          chunk_size=DEFAULT_CHUNK_SIZE):
    """Read the edge table of an edge type's record file."""
    tails, heads = _read_columns(path, ["tail", "head"])
    return EdgeTable(
        name or table_stem(path),
        np.array(tails, dtype=np.int64),
        np.array(heads, dtype=np.int64),
        num_tail_nodes=num_tail_nodes,
        num_head_nodes=num_head_nodes,
        directed=directed,
    )
