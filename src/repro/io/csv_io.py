"""CSV export/import of Property Tables and Edge Tables.

The integrability requirement of Section 2: generators should connect
to production technologies.  CSV is the lingua franca (LDBC-SNB ships
CSVs); every table here round-trips losslessly for the supported
dtypes.

Writers stream fixed-size id-range chunks through the vectorised
formatters of :mod:`repro.io.chunks` instead of the historical per-row
``csv.writer`` loop; the bytes are identical (QUOTE_MINIMAL quoting,
CRLF terminators — pinned by ``tests/golden/``) but peak memory is
O(chunk); ``chunks.rows_per_s`` in ``python3 -m bench`` tracks the
formatting throughput.  ``compress=True`` (or a ``.gz`` suffix) gzips
transparently with deterministic headers.
"""

from __future__ import annotations

import csv
from itertools import islice
from pathlib import Path

import numpy as np

from ..tables import EdgeTable, PropertyTable
from .chunks import (
    DEFAULT_CHUNK_SIZE,
    format_edge_csv_chunk,
    format_property_csv_chunk,
    open_text,
    parse_typed_column,
    table_stem,
    write_chunks,
)

__all__ = [
    "write_property_table",
    "read_property_table",
    "write_edge_table",
    "read_edge_table",
]

_PT_HEADER = ["id", "value"]
_ET_HEADER = ["id", "tailId", "headId"]


def _property_chunk_job(table, start, stop):
    """Format one PT chunk."""
    return format_property_csv_chunk(
        start, table.read_range(start, stop), table.name
    )


def _edge_chunk_job(table, start, stop):
    """Format one ET chunk."""
    return format_edge_csv_chunk(start, *table.read_range(start, stop))


def write_property_table(table, path, chunk_size=DEFAULT_CHUNK_SIZE,
                         compress=None):
    """Write a PT as ``id,value`` CSV (header included), chunk-streamed."""
    return write_chunks(
        path, compress, "id,value\r\n", _property_chunk_job, (table,),
        len(table), chunk_size,
    )


def write_edge_table(table, path, chunk_size=DEFAULT_CHUNK_SIZE,
                     compress=None):
    """Write an ET as ``id,tailId,headId`` CSV, chunk-streamed."""
    return write_chunks(
        path, compress, "id,tailId,headId\r\n", _edge_chunk_job,
        (table,), len(table), chunk_size,
    )


def _iter_csv_chunks(path, expected_header, chunk_size):
    """Yield ``(start_row, columns)`` per chunk; validates shape."""
    with open_text(path, "r") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != expected_header:
            raise ValueError(
                f"{path}: expected header {expected_header}, got {header}"
            )
        width = len(expected_header)
        start = 0
        while True:
            block = list(islice(reader, chunk_size))
            if not block:
                return
            for offset, row in enumerate(block):
                if len(row) != width:
                    raise ValueError(
                        f"{path}:{start + offset + 2}: malformed row"
                    )
            yield start, tuple(
                [row[i] for row in block] for i in range(width)
            )
            start += len(block)


def _check_dense_ids(path, start, id_strings, label="ids"):
    """Vectorised check that ids equal ``start..start+len-1``."""
    try:
        ids = parse_typed_column(id_strings, np.int64)
    except ValueError:
        raise ValueError(
            f"{path}: non-dense {label} (non-integer id)"
        ) from None
    expected = np.arange(start, start + len(ids), dtype=np.int64)
    if not np.array_equal(ids, expected):
        bad = int(np.argmax(ids != expected))
        raise ValueError(
            f"{path}: non-dense {label} (expected {start + bad}, "
            f"got {int(ids[bad])})"
        )


def read_property_table(path, name=None, dtype=None,
                        chunk_size=DEFAULT_CHUNK_SIZE):
    """Read a PT written by :func:`write_property_table`.

    ``dtype`` forces the value column type — any supported table dtype
    round-trips exactly, including bool, unicode and datetime (the
    manifest-driven :class:`~repro.io.streaming.CsvSource` passes the
    recorded dtype automatically).  Without ``dtype``, int, then float,
    then string parsing is attempted, matching the historical
    behaviour.  Typed reads parse chunk by chunk; only the heuristic
    path buffers the raw strings.
    """
    path = Path(path)
    forced = None if dtype is None else np.dtype(dtype)
    parsed = []
    raw = []
    for start, (id_col, value_col) in _iter_csv_chunks(
        path, _PT_HEADER, chunk_size
    ):
        _check_dense_ids(path, start, id_col)
        if forced is None:
            raw.extend(value_col)
        else:
            parsed.append(parse_typed_column(value_col, forced))
    if forced is None:
        values = _parse_values(raw, None)
    elif parsed:
        values = np.concatenate(parsed)
    else:
        values = np.empty(
            0, dtype=object if forced.kind == "O" else forced
        )
    return PropertyTable(name or table_stem(path), values)


def _parse_values(values, dtype):
    if dtype is not None:
        dtype = np.dtype(dtype)
        if dtype.kind == "O":
            return np.array(values, dtype=object)
        return parse_typed_column(values, dtype)
    try:
        return np.array([int(v) for v in values], dtype=np.int64)
    except ValueError:
        pass
    try:
        return np.array([float(v) for v in values], dtype=np.float64)
    except ValueError:
        pass
    return np.array(values, dtype=object)


def read_edge_table(path, name=None, directed=False,
                    num_tail_nodes=None, num_head_nodes=None,
                    chunk_size=DEFAULT_CHUNK_SIZE):
    """Read an ET written by :func:`write_edge_table`, chunk by chunk."""
    path = Path(path)
    tail_parts, head_parts = [], []
    for start, (id_col, tail_col, head_col) in _iter_csv_chunks(
        path, _ET_HEADER, chunk_size
    ):
        _check_dense_ids(path, start, id_col, label="edge ids")
        tail_parts.append(parse_typed_column(tail_col, np.int64))
        head_parts.append(parse_typed_column(head_col, np.int64))
    empty = np.empty(0, dtype=np.int64)
    return EdgeTable(
        name or table_stem(path),
        np.concatenate(tail_parts) if tail_parts else empty,
        np.concatenate(head_parts) if head_parts else empty,
        num_tail_nodes=num_tail_nodes,
        num_head_nodes=num_head_nodes,
        directed=directed,
    )
