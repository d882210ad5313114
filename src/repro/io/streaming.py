"""Streaming GraphSink/GraphSource layer: chunked, memory-bounded IO.

A :class:`GraphSink` turns a :class:`~repro.core.result.PropertyGraph`
into files of one format, consuming every table in fixed-size id-range
chunks (``chunk_size`` rows) so the export path never materialises a
whole table as Python rows or a whole file as one string.  A
:class:`GraphSource` reads the directory back.  Both speak a
``manifest.json`` sidecar recording the exact dtype and shape of every
table, which is what makes round trips lossless for bool, unicode,
datetime and empty tables — information the bare text formats drop.

Sinks also implement the *streaming protocol* the engines drive
(:meth:`GraphSink.begin` / :meth:`GraphSink.on_table` /
:meth:`GraphSink.finish`): the serial engine and the shard-parallel
executor announce each completed task in serial plan order, and the
sink writes the corresponding file as soon as its inputs are complete
— export overlaps generation instead of waiting for the whole graph.
Output bytes are identical to calling :func:`export_graph` on the
finished graph, and to the pre-streaming per-row exporters (the
bit-identity contract of DESIGN.md, extended to IO; see
``tests/golden/`` and ``tests/test_streaming_io.py``).

Compression (``compress=True``) gzips every data file with
deterministic headers, so the byte-identity guarantee covers ``.gz``
output too.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import csv_io, edgelist, jsonl
from .chunks import DEFAULT_CHUNK_SIZE
from .graphml import write_graphml

__all__ = [
    "GraphSink",
    "CsvSink",
    "JsonlSink",
    "EdgelistSink",
    "GraphmlSink",
    "GraphSource",
    "CsvSource",
    "JsonlSource",
    "EdgelistSource",
    "export_graph",
    "make_sink",
    "make_source",
    "SINK_FORMATS",
    "MANIFEST_NAME",
]

MANIFEST_NAME = "manifest.json"


def _dtype_token(values):
    """JSON-safe dtype spelling (``"object"`` for O columns)."""
    return "object" if values.dtype.kind == "O" else values.dtype.str


def _token_dtype(token):
    return object if token == "object" else np.dtype(token)


# -- sinks --------------------------------------------------------------------


class GraphSink:
    """Base class: a chunked, format-specific graph writer.

    Parameters
    ----------
    directory:
        output directory (created on first write).
    chunk_size:
        rows per formatted chunk — the memory bound of the export path.
    compress:
        gzip every data file (deterministic headers; adds ``.gz``).

    A table-oriented format is its ``property_writer`` /
    ``edge_writer`` (the module-level chunk writers; ``None`` = the
    format does not carry that relation) plus a ``suffix``;
    record-oriented formats that must join several tables per file
    override :meth:`on_table` / :meth:`finish`.

    The engine-facing streaming protocol is ``begin(graph)`` once,
    ``on_table(kind, key)`` per completed task *in serial plan order*,
    ``finish()`` once; ``written`` accumulates the produced paths.
    """

    format_name = None
    suffix = None
    property_writer = None
    edge_writer = None

    def __init__(self, directory, chunk_size=DEFAULT_CHUNK_SIZE,
                 compress=False):
        self.directory = Path(directory)
        self.chunk_size = int(chunk_size)
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.compress = bool(compress)
        self.written = []
        self.graph = None
        self._tables = {}

    # -- plumbing ---------------------------------------------------------

    def data_path(self, stem):
        """Output path for one table/type file (``.gz`` aware);
        ensures the directory exists."""
        self.directory.mkdir(parents=True, exist_ok=True)
        name = f"{stem}{self.suffix}"
        if self.compress:
            name += ".gz"
        return self.directory / name

    def _record(self, name, path, entry):
        entry["file"] = path.name
        self._tables[name] = entry
        self.written.append(path)
        return path

    # -- table-oriented writes ---------------------------------------------

    def _write_table(self, relation, writer, table, name, entry):
        if writer is None:
            raise NotImplementedError(
                f"{type(self).__name__} does not export {relation} tables"
            )
        name = name or table.name
        path = self.data_path(name)
        writer(table, path, chunk_size=self.chunk_size,
               compress=self.compress)
        return self._record(name, path, entry)

    def write_property_table(self, table, name=None,
                             role="property"):
        return self._write_table(
            "property", self.property_writer, table, name,
            self._property_entry(table, role),
        )

    def write_edge_table(self, table, name=None):
        return self._write_table(
            "edge", self.edge_writer, table, name,
            self._edge_entry(table),
        )

    # -- streaming protocol ------------------------------------------------

    def begin(self, graph):
        """Attach the (possibly still-filling) result graph."""
        self.graph = graph

    def on_table(self, kind, key):
        """One task finished: ``kind`` in ``count`` / ``node_property``
        / ``edge_table`` / ``edge_property``; ``key`` its subject.

        Default behaviour writes each table the format has a writer
        for as it lands, which is correct for table-oriented formats.
        """
        if kind == "edge_table":
            if self.edge_writer is not None:
                self.write_edge_table(
                    self.graph.edge_tables[key], name=key
                )
        elif kind in ("node_property", "edge_property"):
            if self.property_writer is not None:
                tables = (
                    self.graph.node_properties
                    if kind == "node_property"
                    else self.graph.edge_properties
                )
                self.write_property_table(
                    tables[key], name=key, role=kind
                )

    def finish(self):
        """Write the manifest; returns all written paths.

        An ``extra_manifest`` attribute set on the sink (a dict) is
        merged into the manifest document — the planting stage records
        its ground-truth node maps this way, so a ``(template, world,
        ground_truth)`` triple travels in one export directory.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        manifest = {
            "format": self.format_name,
            "version": 1,
            "compress": self.compress,
            "tables": self._tables,
        }
        extra = getattr(self, "extra_manifest", None)
        if extra:
            manifest.update(extra)
        path = self.directory / MANIFEST_NAME
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")
        self.written.append(path)
        return list(self.written)

    # -- manifest entries --------------------------------------------------

    def _property_entry(self, table, role):
        return {
            "kind": "property",
            "role": role,
            "rows": len(table),
            "dtype": _dtype_token(table.values),
        }

    def _edge_entry(self, table):
        return {
            "kind": "edge",
            "rows": len(table),
            "num_tail_nodes": table.num_tail_nodes,
            "num_head_nodes": table.num_head_nodes,
            "directed": table.directed,
        }


class CsvSink(GraphSink):
    """One ``id,value`` / ``id,tailId,headId`` CSV per table."""

    format_name = "csv"
    suffix = ".csv"
    property_writer = staticmethod(csv_io.write_property_table)
    edge_writer = staticmethod(csv_io.write_edge_table)


class EdgelistSink(GraphSink):
    """One ``tail head`` file per edge table (structure only)."""

    format_name = "edgelist"
    suffix = ".edges"
    edge_writer = staticmethod(edgelist.write_edgelist)


class JsonlSink(GraphSink):
    """One record-oriented ``.jsonl`` per node/edge type.

    Record files join a type's id column with all its property columns,
    so a type can only be written once every contributing table exists.
    Under the streaming protocol the sink tracks, per type, which
    tables are still outstanding and flushes each type the moment its
    last table lands — the earliest plan-order point at which the file
    is writable at all.  Table-oriented writes use the null-preserving
    table layout.
    """

    format_name = "jsonl"
    suffix = ".jsonl"
    property_writer = staticmethod(jsonl.write_property_table_jsonl)
    edge_writer = staticmethod(jsonl.write_edge_table_jsonl)

    def __init__(self, directory, chunk_size=DEFAULT_CHUNK_SIZE,
                 compress=False):
        super().__init__(directory, chunk_size, compress)
        self._node_pending = None
        self._edge_pending = None

    # -- record-oriented streaming ----------------------------------------

    def begin(self, graph):
        super().begin(graph)
        schema = graph.schema
        self._node_pending = {
            name: {f"{name}.{p.name}" for p in node_type.properties}
            for name, node_type in schema.node_types.items()
        }
        self._edge_pending = {
            name: {name}
            | {f"{name}.{p.name}" for p in edge_type.properties}
            for name, edge_type in schema.edge_types.items()
        }

    def _flush_type(self, name, is_edge):
        """Write one node or edge type's record file."""
        graph = self.graph
        if is_edge:
            writer, rows = jsonl.write_edges_jsonl, graph.num_edges(name)
            declared = graph.schema.edge_type(name)
        else:
            writer, rows = jsonl.write_nodes_jsonl, graph.num_nodes(name)
            declared = graph.schema.node_type(name)
        path = self.data_path(name)
        writer(graph, name, path, chunk_size=self.chunk_size,
               compress=self.compress)
        return self._record(name, path, {
            "kind": "edge_records" if is_edge else "node_records",
            "rows": rows,
            "properties": [p.name for p in declared.properties],
        })

    def on_table(self, kind, key):
        if kind == "count":
            if key in self._node_pending and \
                    not self._node_pending[key]:
                del self._node_pending[key]
                self._flush_type(key, False)
            return
        if kind == "node_property":
            type_name = key.split(".", 1)[0]
            pending = self._node_pending.get(type_name)
            if pending is None:
                return
            pending.discard(key)
            if not pending and type_name in self.graph.node_counts:
                del self._node_pending[type_name]
                self._flush_type(type_name, False)
            return
        if kind in ("edge_table", "edge_property"):
            edge_name = key.split(".", 1)[0]
            pending = self._edge_pending.get(edge_name)
            if pending is None:
                return
            pending.discard(key)
            if not pending:
                del self._edge_pending[edge_name]
                self._flush_type(edge_name, True)

    def finish(self):
        # Flush anything not announced through the protocol; a type is
        # only writable when its count/edge table AND every property
        # table actually exist, so partial graphs skip incomplete
        # types instead of crashing.
        if self._node_pending is not None:
            for type_name in list(self._node_pending):
                if type_name in self.graph.node_counts and all(
                    key in self.graph.node_properties
                    for key in self._node_pending[type_name]
                ):
                    del self._node_pending[type_name]
                    self._flush_type(type_name, False)
            for edge_name in list(self._edge_pending):
                pending = self._edge_pending[edge_name]
                if edge_name in self.graph.edge_tables and all(
                    key in self.graph.edge_properties
                    for key in pending if key != edge_name
                ):
                    del self._edge_pending[edge_name]
                    self._flush_type(edge_name, True)
        return super().finish()


class GraphmlSink(GraphSink):
    """One ``.graphml`` document per monopartite edge type.

    GraphML interleaves nodes and edges in one document, so files are
    written at :meth:`finish` when all contributing tables exist.
    """

    format_name = "graphml"
    suffix = ".graphml"

    def finish(self):
        if self.graph is None:
            return super().finish()
        schema = self.graph.schema
        for name, edge in schema.edge_types.items():
            if edge.tail_type != edge.head_type:
                continue
            if name not in self.graph.edge_tables:
                continue
            path = self.data_path(name)
            write_graphml(
                self.graph, name, path,
                chunk_size=self.chunk_size, compress=self.compress,
            )
            self._record(name, path, {
                "kind": "graphml",
                "rows": self.graph.num_edges(name),
            })
        return super().finish()


# -- sources ------------------------------------------------------------------


class GraphSource:
    """Base class: reads a sink directory back into tables.

    The manifest (when present) supplies the dtype and shape of every
    table, making reads lossless; without it, readers fall back to the
    per-format inference heuristics.
    """

    format_name = None
    suffix = None
    property_reader = None
    edge_reader = None

    def __init__(self, directory, chunk_size=DEFAULT_CHUNK_SIZE):
        self.directory = Path(directory)
        self.chunk_size = int(chunk_size)
        manifest_path = self.directory / MANIFEST_NAME
        self.manifest = None
        if manifest_path.exists():
            with open(manifest_path, encoding="utf-8") as handle:
                self.manifest = json.load(handle)

    def _entries(self, kind):
        if self.manifest is None:
            return {}
        return {
            name: entry
            for name, entry in self.manifest["tables"].items()
            if entry["kind"] == kind
        }

    def _entry(self, name):
        if self.manifest is None:
            return None
        return self.manifest["tables"].get(name)

    def _data_path(self, name):
        entry = self._entry(name)
        if entry is not None:
            return self.directory / entry["file"]
        for candidate in (f"{name}{self.suffix}",
                          f"{name}{self.suffix}.gz"):
            path = self.directory / candidate
            if path.exists():
                return path
        raise FileNotFoundError(
            f"{self.directory}: no {self.suffix} file for table "
            f"{name!r}"
        )

    # -- common reconstruction helpers ------------------------------------

    def _property_dtype(self, name, dtype):
        if dtype is not None:
            return dtype
        entry = self._entry(name)
        if entry is not None and entry["kind"] == "property":
            return _token_dtype(entry["dtype"])
        return None

    def _edge_kwargs(self, name):
        entry = self._entry(name)
        if entry is None or entry["kind"] != "edge":
            return {}
        return {
            "num_tail_nodes": entry["num_tail_nodes"],
            "num_head_nodes": entry["num_head_nodes"],
            "directed": entry["directed"],
        }

    def property_table_names(self):
        return list(self._entries("property"))

    def edge_table_names(self):
        return list(self._entries("edge"))

    def read_property_table(self, name, dtype=None):
        if self.property_reader is None:
            raise NotImplementedError(
                f"{type(self).__name__} does not read property tables"
            )
        return self.property_reader(
            self._data_path(name),
            name=name,
            dtype=self._property_dtype(name, dtype),
            chunk_size=self.chunk_size,
        )

    def read_edge_table(self, name):
        return self.edge_reader(
            self._data_path(name),
            name=name,
            chunk_size=self.chunk_size,
            **self._edge_kwargs(name),
        )

    def property_tables(self):
        """All property tables recorded in the manifest, by name."""
        return {
            name: self.read_property_table(name)
            for name in self.property_table_names()
        }

    def edge_tables(self):
        """All edge tables recorded in the manifest, by name."""
        return {
            name: self.read_edge_table(name)
            for name in self.edge_table_names()
        }


class CsvSource(GraphSource):
    format_name = "csv"
    suffix = ".csv"
    property_reader = staticmethod(csv_io.read_property_table)
    edge_reader = staticmethod(csv_io.read_edge_table)


class JsonlSource(GraphSource):
    format_name = "jsonl"
    suffix = ".jsonl"
    property_reader = staticmethod(jsonl.read_property_table_jsonl)
    edge_reader = staticmethod(jsonl.read_edge_table_jsonl)


class EdgelistSource(GraphSource):
    format_name = "edgelist"
    suffix = ".edges"
    edge_reader = staticmethod(edgelist.read_edgelist)


# -- whole-graph export and factories -----------------------------------------


def export_graph(graph, sink):
    """Drive a sink over a finished graph (plan-equivalent order).

    Emits the same ``on_table`` event sequence the engines produce —
    counts, then each table in its dict (= serial plan) order — so the
    output is byte-identical to engine-streamed export.  Returns the
    written paths.
    """
    sink.begin(graph)
    for type_name in graph.node_counts:
        sink.on_table("count", type_name)
    for key in graph.node_properties:
        sink.on_table("node_property", key)
    for name in graph.edge_tables:
        sink.on_table("edge_table", name)
    for key in graph.edge_properties:
        sink.on_table("edge_property", key)
    return sink.finish()


SINK_FORMATS = {
    "csv": (CsvSink, CsvSource),
    "jsonl": (JsonlSink, JsonlSource),
    "edgelist": (EdgelistSink, EdgelistSource),
    "graphml": (GraphmlSink, None),
}


def make_sink(format_name, directory, chunk_size=DEFAULT_CHUNK_SIZE,
              compress=False):
    """Sink factory keyed by format name (the CLI entry point)."""
    if format_name not in SINK_FORMATS:
        raise ValueError(
            f"unknown sink format {format_name!r}; "
            f"expected one of {sorted(SINK_FORMATS)}"
        )
    sink_cls, _ = SINK_FORMATS[format_name]
    return sink_cls(directory, chunk_size=chunk_size, compress=compress)


def make_source(format_name, directory, chunk_size=DEFAULT_CHUNK_SIZE):
    """Source factory keyed by format name."""
    if format_name not in SINK_FORMATS:
        raise ValueError(
            f"unknown source format {format_name!r}; "
            f"expected one of {sorted(SINK_FORMATS)}"
        )
    _, source_cls = SINK_FORMATS[format_name]
    if source_cls is None:
        raise ValueError(f"format {format_name!r} has no source")
    return source_cls(directory, chunk_size=chunk_size)
