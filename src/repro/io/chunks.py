"""Chunked batch formatting — the engine room of the streaming IO layer.

Every exporter used to materialise whole tables and write one Python
row at a time (``csv.writer`` loops).  This module replaces that with
batch formatting of fixed-size id-range *chunks*: a chunk of
``chunk_size`` rows is converted to its exact output text in a handful
of column-level operations, written, and released.  Peak memory on the
export path is therefore O(chunk), not O(table).

:func:`write_chunks` is the one loop that does so for every CSV /
JSONL / edge-list file: the format modules supply a per-chunk job that
pages its rows through the table protocol
(``table.read_range(lo, hi)``, :mod:`repro.tables.ranged`) and calls
one of the ``format_*_chunk`` functions below, so any table class
produces the same bytes.

The implementation strategy is measured, not assumed (``python3 -m
bench``, ``chunks.format_s``): numpy handles dtype dispatch,
datetime/bool conversion, non-finite masking and typed parsing; CSV
and edge-list rows of integer and bool columns — and of stringified
columns whose chunk needs no quoting — are assembled by the compiled
loop of :mod:`repro.io._ckernel`.  Everything else (JSON/XML rows, a
field needing quotes, no compiler, ``REPRO_NO_CKERNEL=1``) runs as
C-level batch string operations (``map``/``join`` over
``ndarray.tolist()`` scalars): ~10x slower than the kernel on integer
columns but ~2x faster than ``csv.writer`` — where ``np.char`` ufuncs,
allocating a fixed-width array per operation, are ~3x *slower* than it.

Byte-identity is the contract: for every supported dtype the chunk
formatters reproduce the legacy per-row output *exactly* —
``csv.writer``'s QUOTE_MINIMAL quoting and CRLF terminators,
``json.dumps``'s separators, escapes and float reprs,
``xml.sax.saxutils.escape``'s entity set.  ``tests/golden/`` pins the
bytes; ``tests/test_streaming_io.py`` cross-checks against the stdlib
writers on adversarial values.  (Float formatting relies on
``str(float)`` being the shortest-roundtrip repr, which numpy scalar
``str`` has matched since numpy 1.14.)
"""

from __future__ import annotations

import gzip
import io
import json
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from ..tables.ranged import chunk_bounds
from . import _ckernel

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "id_strings",
    "open_text",
    "write_chunks",
    "table_stem",
    "stringify_column",
    "csv_quote_column",
    "xml_escape_column",
    "json_encode_column",
    "format_property_csv_chunk",
    "format_edge_csv_chunk",
    "format_edgelist_chunk",
    "format_json_records_chunk",
    "parse_typed_column",
]

#: Default rows per chunk.  64k int64 rows is ~0.5 MB per column —
#: small enough to bound memory, large enough to amortise per-chunk
#: overhead.
DEFAULT_CHUNK_SIZE = 65_536


# -- file handles -------------------------------------------------------------


class _GzipTextWriter(io.TextIOWrapper):
    """Deterministic gzip text writer.

    ``gzip.open`` embeds the mtime (and filename) in the header, which
    would break the byte-identity guarantee across runs; this wrapper
    pins ``mtime=0`` and an empty stored name so identical content
    always produces identical ``.gz`` bytes.
    """

    def __init__(self, path):
        self._raw = open(path, "wb")
        self._gz = gzip.GzipFile(
            filename="", mode="wb", fileobj=self._raw, mtime=0
        )
        super().__init__(self._gz, encoding="utf-8", newline="")

    def close(self):
        try:
            super().close()
        finally:
            self._raw.close()


def table_stem(path):
    """Default table name for a data file: the stem, ``.gz``-aware."""
    path = Path(path)
    if path.suffix == ".gz":
        path = path.with_suffix("")
    return path.stem


def open_text(path, mode="r", compress=None):
    """Open a text file, transparently gzipped.

    ``compress=None`` infers from the ``.gz`` suffix.  Newline
    translation is disabled — the chunk formatters embed the exact
    terminators (CRLF for CSV, LF elsewhere) — and the encoding is
    pinned to UTF-8 so output bytes don't depend on the locale.
    """
    path = Path(path)
    if compress is None:
        compress = path.suffix == ".gz"
    if mode not in ("r", "w"):
        raise ValueError(f"open_text supports 'r'/'w', got {mode!r}")
    if not compress:
        handle = open(path, mode, encoding="utf-8", newline="")
    elif mode == "r":
        handle = gzip.open(path, "rt", encoding="utf-8", newline="")
    else:
        handle = _GzipTextWriter(path)
    if mode == "w":
        # Export writes are the `export` fault-injection site; the
        # wrapper is the identity when no fault plan targets it.
        # Imported lazily: repro.io and repro.core import each other
        # at module level through spool/sharded, so a top-level import
        # here could observe a partially initialised package.
        from ..core import faults
        handle = faults.wrap_export_handle(handle)
    return handle


def write_chunks(path, compress, header, job, args, total, chunk_size):
    """The chunk-writer loop under every CSV / JSONL / edge-list file.

    Writes ``header``, then the text ``job(*args, lo, hi)`` returns for
    each ``chunk_size`` id range of ``[0, total)``, in id order.
    ``job`` reads its own rows through the table protocol
    (``table.read_range(lo, hi)``), so every table class — resident,
    spooled, overlaid, virtual — is written by this one loop.
    """
    path = Path(path)
    bounds = chunk_bounds(path.name, total, chunk_size)
    with open_text(path, "w", compress) as handle:
        handle.write(header)
        for lo, hi in bounds:
            handle.write(job(*args, lo, hi))
    return path


# -- column -> string conversion ----------------------------------------------


def stringify_column(values):
    """``str()`` of every element as a list, batch-converted.

    Matches ``csv.writer``'s conversion rules: ``str`` of the scalar
    for numeric/bool/datetime kinds (``str(python scalar)`` equals
    ``str(numpy scalar)`` for every supported kind) and ``None`` ->
    empty field for object columns.  Datetimes go through numpy's
    ISO-format ``astype`` so sub-day units keep the ``T`` separator
    ``str(datetime64)`` uses.
    """
    values = np.asarray(values)
    kind = values.dtype.kind
    if kind == "O":
        return [
            "" if v is None else str(v) for v in values.tolist()
        ]
    if kind == "U":
        return values.tolist()
    if kind == "M":
        return values.astype(str).tolist()
    return [str(v) for v in values.tolist()]


def csv_quote_column(fields):
    """Apply ``csv.writer``'s QUOTE_MINIMAL to a field sequence.

    A field is quoted iff it contains the delimiter, the quote char, or
    a line-terminator character; embedded quotes are doubled.
    """
    out = []
    append = out.append
    for field in fields:
        if '"' in field:
            append('"' + field.replace('"', '""') + '"')
        elif "," in field or "\n" in field or "\r" in field:
            append('"' + field + '"')
        else:
            append(field)
    return out


def xml_escape_column(fields):
    """``xml.sax.saxutils.escape`` over a field sequence."""
    return [
        field
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        if ("&" in field or "<" in field or ">" in field)
        else field
        for field in fields
    ]


def _jsonable(value):
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.str_):
        return str(value)
    return value


#: json.dumps spellings of the non-finite doubles (str() spells them
#: ``nan`` / ``inf`` / ``-inf`` instead).
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def json_encode_column(values):
    """JSON-encode every element, byte-identical to ``json.dumps``.

    Numeric and bool columns convert without touching ``json.dumps``;
    strings go through the C ``encode_basestring_ascii`` (the exact
    escaping ``dumps`` applies); arbitrary objects fall back to
    per-element ``dumps`` within the chunk.
    """
    values = np.asarray(values)
    kind = values.dtype.kind
    if kind in "iu":
        return [str(v) for v in values.tolist()]
    if kind == "b":
        return np.where(values, "true", "false").tolist()
    if kind == "f":
        out = [str(v) for v in values.tolist()]
        if not np.isfinite(values).all():
            for i in np.flatnonzero(~np.isfinite(values)).tolist():
                out[i] = _JSON_NONFINITE[out[i]]
        return out
    if kind == "M":
        # ISO strings; no JSON metacharacters possible.
        return [
            '"' + v + '"' for v in values.astype(str).tolist()
        ]
    if kind == "U":
        return [encode_basestring_ascii(v) for v in values.tolist()]
    return [
        encode_basestring_ascii(v) if type(v) is str
        else json.dumps(_jsonable(v))
        for v in values.tolist()
    ]


# -- chunk -> text assembly ---------------------------------------------------


def id_strings(start, stop):
    """The dense id column ``start..stop-1`` as decimal strings."""
    return list(map(str, range(start, stop)))


def _join_rows(columns, sep, term):
    """Rows from parallel string columns: the no-kernel path."""
    return term.join(map(sep.join, zip(*columns))) + term


def format_property_csv_chunk(start, values):
    """``id,value`` CSV lines (CRLF) for rows ``start..start+len-1``."""
    values = np.asarray(values)
    if not len(values):
        return ""
    text = _ckernel.format_rows(start, (values,), ",", "\r\n")
    if text is None:
        fields = stringify_column(values)
        # QUOTE_MINIMAL's triggers: a chunk with none needs no quoting.
        text = _ckernel.format_rows(
            start, (fields,), ",", "\r\n", forbidden='",\r')
    if text is None:
        text = _join_rows(
            (id_strings(start, start + len(fields)),
             csv_quote_column(fields)), ",", "\r\n")
    return text


def format_edge_csv_chunk(start, tails, heads):
    """``id,tailId,headId`` CSV lines (CRLF) for one edge chunk."""
    if not len(tails):
        return ""
    text = _ckernel.format_rows(start, (tails, heads), ",", "\r\n")
    if text is None:
        text = _join_rows(
            (id_strings(start, start + len(tails)),
             map(str, tails.tolist()), map(str, heads.tolist())),
            ",", "\r\n")
    return text


def format_edgelist_chunk(tails, heads):
    """``tail head`` lines (LF) for one edge chunk."""
    if not len(tails):
        return ""
    text = _ckernel.format_rows(None, (tails, heads), " ", "\n")
    if text is None:
        text = _join_rows(
            (map(str, tails.tolist()), map(str, heads.tolist())),
            " ", "\n")
    return text


def record_template(keys, item="%s"):
    """A ``%``-template reproducing ``json.dumps({key: value, ...})``.

    ``format_json_records_chunk`` fills one ``%s`` per column; callers
    building custom line shapes (GraphML) pass their own ``item``.
    Literal ``%`` in keys is escaped so only the value slots format.
    """
    if not keys:
        raise ValueError("records need at least one key")
    return "{" + ", ".join(
        f"{json.dumps(key)}: ".replace("%", "%%") + item
        for key in keys
    ) + "}"


def format_json_records_chunk(keys, encoded_columns):
    """JSON-lines records (LF) from pre-encoded value columns.

    Reproduces ``json.dumps({key: value, ...})`` with the default
    ``", "`` / ``": "`` separators for every row of the chunk.
    """
    template = record_template(keys)
    rows = [template % row for row in zip(*encoded_columns)]
    if not rows:
        return ""
    return "\n".join(rows) + "\n"


# -- string -> column parsing -------------------------------------------------


def parse_typed_column(strings, dtype):
    """Parse CSV field strings back into an array of ``dtype``.

    The inverse of :func:`stringify_column` for every supported table
    dtype (int/uint, float — including ``nan``/``inf`` —, bool,
    unicode, datetime, object).  Object columns keep the raw field
    strings (CSV cannot distinguish ``None`` from its string form; use
    JSONL for null-preserving round trips).
    """
    dtype = np.dtype(dtype) if dtype is not object else np.dtype(object)
    if dtype.kind == "O":
        return np.array(list(strings), dtype=object)
    arr = np.asarray(strings, dtype=str)
    if dtype.kind == "b":
        return arr == "True"
    if arr.size == 0:
        return np.empty(0, dtype=dtype)
    return arr.astype(dtype)
