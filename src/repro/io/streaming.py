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
sink writes each file as soon as the last table it joins is announced
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


def _property_keys(owner, declared):
    """``Owner.prop`` table keys of a node or edge type, in order."""
    return [f"{owner}.{prop.name}" for prop in declared.properties]


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

    A format is the files it writes: :meth:`files` names each file and
    the tables it joins, :meth:`write_file` writes one.  A
    table-oriented format needs only its ``property_writer`` /
    ``edge_writer`` (the module-level chunk writers; ``None`` = the
    format does not carry that relation) and a ``suffix``.

    The engine-facing streaming protocol is ``begin(graph)`` once,
    ``on_table(key)`` per completed task *in serial plan order*,
    ``finish()`` once; ``written`` accumulates the produced paths.
    One rule serves every format: a file is written when the last
    table it joins is announced, and ``finish`` writes any other file
    whose tables all exist (a partial graph skips the rest).
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
        #: stem -> keys not yet announced; key -> stems that join it
        self._pending = {}
        self._joined_by = {}

    # -- plumbing ---------------------------------------------------------

    def data_path(self, stem):
        """Output path for one file (``.gz`` aware); ensures the
        directory exists."""
        self.directory.mkdir(parents=True, exist_ok=True)
        name = f"{stem}{self.suffix}"
        if self.compress:
            name += ".gz"
        return self.directory / name

    def _record(self, name, path, entry):
        """One manifest entry: table ``name`` lives in ``path``."""
        entry["file"] = path.name
        self._tables[name] = entry

    # -- the files of a format ---------------------------------------------

    def files(self, schema):
        """``(stem, keys)`` per file written for ``schema``: ``keys``
        are the tables the file joins — a node type's name for its
        count, an edge type's name for its edge table, ``Type.prop``
        for a property table.

        >>> from repro.core.schema import (
        ...     EdgeType, GeneratorSpec, NodeType, PropertyDef, Schema)
        >>> age = PropertyDef("age", "long", GeneratorSpec(
        ...     "uniform_int", {"low": 18, "high": 80}))
        >>> schema = Schema([NodeType("Person", properties=[age])],
        ...                 [EdgeType("knows", "Person", "Person")])
        >>> CsvSink("out").files(schema)
        [('Person.age', ('Person.age',)), ('knows', ('knows',))]
        >>> JsonlSink("out").files(schema)
        [('Person', ('Person', 'Person.age')), ('knows', ('knows',))]
        """
        keys = []
        for name, declared in schema.node_types.items():
            if self.property_writer is not None:
                keys += _property_keys(name, declared)
        for name, declared in schema.edge_types.items():
            if self.edge_writer is not None:
                keys.append(name)
            if self.property_writer is not None:
                keys += _property_keys(name, declared)
        return [(key, (key,)) for key in keys]

    def write_file(self, stem):
        """Write one file of :meth:`files` from the attached graph."""
        graph = self.graph
        if stem in graph.edge_tables:
            return self.write_edge_table(graph.edge_tables[stem], stem)
        if stem in graph.node_properties:
            return self.write_property_table(
                graph.node_properties[stem], stem, "node_property")
        return self.write_property_table(
            graph.edge_properties[stem], stem, "edge_property")

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
        self._record(name, path, entry)
        self.written.append(path)
        return path

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
        self._pending, self._joined_by = {}, {}
        for stem, keys in self.files(graph.schema):
            self._pending[stem] = set(keys)
            for key in keys:
                self._joined_by.setdefault(key, []).append(stem)

    def on_table(self, key):
        """The table ``key`` (a task's subject) is complete; writes
        each file whose last table this is."""
        for stem in self._joined_by.pop(key, ()):
            pending = self._pending[stem]
            pending.discard(key)
            if not pending:
                del self._pending[stem]
                self.write_file(stem)

    def finish(self):
        """Write the files not yet written whose tables all exist, then
        the manifest; returns all written paths.

        An ``extra_manifest`` attribute set on the sink (a dict) is
        merged into the manifest document — the planting stage records
        its ground-truth node maps this way, so a ``(template, world,
        ground_truth)`` triple travels in one export directory.
        """
        if self._pending:
            graph = self.graph
            present = {*graph.node_counts, *graph.node_properties,
                       *graph.edge_tables, *graph.edge_properties}
            for stem, pending in list(self._pending.items()):
                if pending <= present:
                    del self._pending[stem]
                    self.write_file(stem)
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
    """One record-oriented ``.jsonl`` per node/edge type: a type's ids
    (and endpoints) joined with all its property columns.

    The manifest holds the same per-table entries as CSV's, each
    naming its type's file, so :class:`JsonlSource` finds every table.
    """

    format_name = "jsonl"
    suffix = ".jsonl"

    def files(self, schema):
        return [
            (name, (name, *_property_keys(name, declared)))
            for name, declared in (*schema.node_types.items(),
                                   *schema.edge_types.items())
        ]

    def write_file(self, stem):
        graph = self.graph
        path = self.data_path(stem)
        if stem in graph.edge_tables:
            writer, role, tables, declared = (
                jsonl.write_edges_jsonl, "edge_property",
                graph.edge_properties, graph.schema.edge_type(stem))
            self._record(stem, path,
                         self._edge_entry(graph.edge_tables[stem]))
        else:
            writer, role, tables, declared = (
                jsonl.write_nodes_jsonl, "node_property",
                graph.node_properties, graph.schema.node_type(stem))
        writer(graph, stem, path, chunk_size=self.chunk_size,
               compress=self.compress)
        for key in _property_keys(stem, declared):
            self._record(key, path,
                         self._property_entry(tables[key], role))
        self.written.append(path)
        return path


class GraphmlSink(GraphSink):
    """One ``.graphml`` document per monopartite edge type: its nodes
    with their properties, then its edges with theirs."""

    format_name = "graphml"
    suffix = ".graphml"

    def files(self, schema):
        return [
            (name, (edge.tail_type,
                    *_property_keys(edge.tail_type,
                                    schema.node_type(edge.tail_type)),
                    name, *_property_keys(name, edge)))
            for name, edge in schema.edge_types.items()
            if edge.tail_type == edge.head_type
        ]

    def write_file(self, stem):
        path = self.data_path(stem)
        write_graphml(self.graph, stem, path,
                      chunk_size=self.chunk_size, compress=self.compress)
        self._record(stem, path, {
            "kind": "graphml", "rows": self.graph.num_edges(stem),
        })
        self.written.append(path)
        return path


# -- sources ------------------------------------------------------------------


class GraphSource:
    """Base class: reads a sink directory back into tables.

    The manifest (when present) lists the tables and supplies the
    dtype and shape of every one, making reads lossless.  Without it,
    listing tables raises ``FileNotFoundError`` naming the missing
    ``manifest.json``, and reading a table named by the caller falls
    back to its ``<name><suffix>`` file and the per-format inference
    heuristics.
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

    def _tables(self):
        """The manifest's entry per table name; only the manifest
        lists them."""
        if self.manifest is None:
            raise FileNotFoundError(
                f"{self.directory / MANIFEST_NAME}: no manifest, so no "
                "list of the tables in this directory"
            )
        return self.manifest["tables"]

    def _entries(self, kind):
        return {
            name: entry
            for name, entry in self._tables().items()
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
    """A JSONL file holds every table of one type, so no table is
    found without the manifest: refused at construction."""

    format_name = "jsonl"
    suffix = ".jsonl"
    property_reader = staticmethod(jsonl.read_property_table_jsonl)
    edge_reader = staticmethod(jsonl.read_edge_table_jsonl)

    def __init__(self, directory, chunk_size=DEFAULT_CHUNK_SIZE):
        super().__init__(directory, chunk_size)
        self._tables()


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
    for tables in (graph.node_counts, graph.node_properties,
                   graph.edge_tables, graph.edge_properties):
        for key in tables:
            sink.on_table(key)
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
