"""I/O connectors (the integrability requirement of Section 2).

Every exporter streams fixed-size id-range chunks through the
vectorised formatters of :mod:`repro.io.chunks`; the
:class:`~repro.io.streaming.GraphSink` / ``GraphSource`` layer bundles
them into whole-graph, manifest-carrying directory exports — see
``docs/io.md`` for the API and the byte-identity guarantee.
"""

from .chunks import DEFAULT_CHUNK_SIZE, open_text
from .csv_io import (
    read_edge_table,
    read_property_table,
    write_edge_table,
    write_property_table,
)
from .edgelist import read_edgelist, write_edgelist
from .graphml import write_graphml
from .jsonl import (
    read_edge_table_jsonl,
    read_property_table_jsonl,
    write_edges_jsonl,
    write_nodes_jsonl,
)
from .networkx_adapter import (
    from_networkx,
    property_graph_to_networkx,
    to_networkx,
)
from .spool import SpooledEdgeTable, SpooledPropertyTable, TableSpool
from .streaming import (
    SINK_FORMATS,
    CsvSink,
    CsvSource,
    EdgelistSink,
    EdgelistSource,
    GraphmlSink,
    GraphSink,
    GraphSource,
    JsonlSink,
    JsonlSource,
    export_graph,
    make_sink,
    make_source,
)

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "SINK_FORMATS",
    "CsvSink",
    "CsvSource",
    "EdgelistSink",
    "EdgelistSource",
    "GraphSink",
    "GraphSource",
    "GraphmlSink",
    "JsonlSink",
    "JsonlSource",
    "SpooledEdgeTable",
    "SpooledPropertyTable",
    "TableSpool",
    "export_graph",
    "from_networkx",
    "make_sink",
    "make_source",
    "open_text",
    "property_graph_to_networkx",
    "read_edge_table",
    "read_edge_table_jsonl",
    "read_edgelist",
    "read_property_table",
    "read_property_table_jsonl",
    "to_networkx",
    "write_edge_table",
    "write_edgelist",
    "write_edges_jsonl",
    "write_graphml",
    "write_nodes_jsonl",
    "write_property_table",
]
