"""Tests for the streaming GraphSink/GraphSource IO layer.

Three contracts:

* **byte-identity** — the vectorised chunk formatters reproduce the
  stdlib writers (``csv.writer``, ``json.dumps``,
  ``xml.sax.saxutils.escape``) byte for byte, for any chunk size and
  with gzip compression;
* **round trips** — manifest-carrying sinks/sources restore every
  supported dtype exactly, including bool, unicode, datetime and
  empty tables;
* **streaming protocol** — engine-driven sinks produce the same bytes
  as post-hoc ``export_graph``.
"""

from __future__ import annotations

import csv
import gzip
import io
import json
from xml.sax.saxutils import escape

import numpy as np
import pytest

from repro.core import GraphGenerator
from repro.datasets import social_network_schema
from repro.io import (
    CsvSink,
    CsvSource,
    EdgelistSink,
    EdgelistSource,
    GraphmlSink,
    JsonlSink,
    JsonlSource,
    export_graph,
    make_sink,
    make_source,
    open_text,
)
from repro.io.chunks import (
    csv_quote_column,
    format_json_records_chunk,
    json_encode_column,
    parse_typed_column,
    stringify_column,
    xml_escape_column,
)
from repro.tables import EdgeTable, PropertyTable

TRICKY_STRINGS = [
    "plain",
    "comma,inside",
    'quote"inside',
    "new\nline",
    "carriage\rreturn",
    "both\r\nends",
    "",
    " leading space",
    "trailing space ",
    "unicode éß中文",
    "tab\tseparated",
    "&<>xml'chars\"",
    '"quoted"',
    ",",
    '"',
]


@pytest.fixture(scope="module")
def graph():
    schema = social_network_schema(num_countries=6)
    return GraphGenerator(schema, {"Person": 90}, seed=5).generate()


def legacy_csv_property_bytes(table):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["id", "value"])
    for row_id, value in table.rows():
        writer.writerow([row_id, value])
    return buf.getvalue()


def legacy_csv_edge_bytes(table):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["id", "tailId", "headId"])
    for edge_id, tail, head in table.rows():
        writer.writerow([edge_id, tail, head])
    return buf.getvalue()


def read_text(path):
    with open_text(path, "r") as handle:
        return handle.read()


class TestChunkPrimitives:
    def test_csv_quote_matches_csv_writer(self):
        # Two-field rows: a lone empty field is the one case where
        # csv.writer quotes beyond QUOTE_MINIMAL (to disambiguate an
        # empty row), and table rows always carry the id field first.
        fields = np.asarray(TRICKY_STRINGS, dtype=str)
        quoted = csv_quote_column(fields)
        for raw, mine in zip(TRICKY_STRINGS, quoted):
            buf = io.StringIO()
            csv.writer(buf).writerow([0, raw])
            assert "0," + str(mine) + "\r\n" == buf.getvalue(), raw

    def test_stringify_matches_str(self):
        arrays = [
            np.array([0, -7, 2**62], dtype=np.int64),
            np.array([1.5, -0.0, 1e300, 1e-300, np.nan, np.inf]),
            np.array([True, False]),
            np.array(["2020-01-01", "1970-12-31"],
                     dtype="datetime64[D]"),
            np.array(TRICKY_STRINGS, dtype=object),
        ]
        for values in arrays:
            out = stringify_column(values)
            expected = [str(v) for v in values]
            assert list(out) == expected, values.dtype

    def test_stringify_none_becomes_empty_field(self):
        out = stringify_column(np.array(["a", None], dtype=object))
        assert list(out) == ["a", ""]

    def test_json_encode_matches_json_dumps(self):
        arrays = [
            np.array([0, -7, 2**62], dtype=np.int64),
            np.array([1.5, -0.0, 1e300, 1e-300, 0.1]),
            np.array([np.nan, np.inf, -np.inf, 2.5]),
            np.array([True, False]),
            np.array(TRICKY_STRINGS, dtype=object),
            np.array(TRICKY_STRINGS, dtype=str),
        ]
        for values in arrays:
            out = json_encode_column(values)
            for raw, mine in zip(values.tolist(), out):
                assert str(mine) == json.dumps(raw), raw

    def test_json_records_chunk_matches_json_dumps(self):
        ids = np.array([4, 5], dtype=np.int64)
        names = np.array(["a,b", 'c"d'], dtype=object)
        text = format_json_records_chunk(
            ["id", "name"],
            [json_encode_column(ids), json_encode_column(names)],
        )
        expected = "".join(
            json.dumps({"id": int(i), "name": str(n)}) + "\n"
            for i, n in zip(ids, names)
        )
        assert text == expected

    def test_xml_escape_matches_saxutils(self):
        out = xml_escape_column(np.asarray(TRICKY_STRINGS, dtype=str))
        assert list(out) == [escape(s) for s in TRICKY_STRINGS]

    def test_parse_typed_column_inverts_stringify(self):
        arrays = [
            np.array([3, -9], dtype=np.int64),
            np.array([1.5, np.nan, np.inf, -np.inf]),
            np.array([True, False, True]),
            np.array(["x", "y z"], dtype="<U3"),
            np.array(["2020-01-01"], dtype="datetime64[D]"),
        ]
        for values in arrays:
            strings = stringify_column(values)
            back = parse_typed_column(strings, values.dtype)
            assert back.dtype == values.dtype
            assert np.array_equal(back, values, equal_nan=(
                values.dtype.kind == "f"
            ))


class TestByteIdentityAgainstStdlib:
    @pytest.mark.parametrize("chunk_size", [1, 7, 10_000])
    def test_property_csv(self, tmp_path, chunk_size):
        from repro.io import write_property_table

        tables = [
            PropertyTable("t", np.array(TRICKY_STRINGS, dtype=object)),
            PropertyTable("t", np.array([1.5, np.nan, -0.0, 1e300])),
            PropertyTable("t", np.array([True, False])),
            PropertyTable("t", np.arange(23, dtype=np.int64)),
            PropertyTable("t", np.array([], dtype=np.int64)),
        ]
        for i, table in enumerate(tables):
            path = write_property_table(
                table, tmp_path / f"t{i}.csv", chunk_size=chunk_size
            )
            assert read_text(path) == legacy_csv_property_bytes(table)

    @pytest.mark.parametrize("chunk_size", [1, 3, 10_000])
    def test_edge_csv(self, tmp_path, chunk_size):
        from repro.io import write_edge_table

        table = EdgeTable(
            "e", [0, 3, 1, 2], [1, 2, 0, 3], num_tail_nodes=4
        )
        path = write_edge_table(
            table, tmp_path / "e.csv", chunk_size=chunk_size
        )
        assert read_text(path) == legacy_csv_edge_bytes(table)

    @pytest.mark.parametrize("chunk_size", [1, 7, 10_000])
    def test_property_jsonl_and_edgelist(self, tmp_path, chunk_size,
                                         one_table_graph):
        """The per-row ``json.dumps`` / f-string writers these
        replaced, byte for byte."""
        from repro.io import write_edgelist

        values = np.arange(-5, 18, dtype=np.int64) * 10**11
        export_graph(one_table_graph(values),
                     JsonlSink(tmp_path, chunk_size=chunk_size))
        assert read_text(tmp_path / "T.jsonl") == "".join(
            json.dumps({"id": row_id, "x": int(value)}) + "\n"
            for row_id, value in enumerate(values)
        )
        edges = EdgeTable(
            "e", [0, 3, 1, 2], [1, 2, 0, 3], num_tail_nodes=4
        )
        path = write_edgelist(
            edges, tmp_path / "e.edges", chunk_size=chunk_size
        )
        assert read_text(path) == "".join(
            f"{int(tail)} {int(head)}\n"
            for tail, head in zip(edges.tails, edges.heads)
        )

    @pytest.mark.parametrize("chunk_size", [1, 7, 10_000])
    def test_jsonl_records(self, graph, tmp_path, chunk_size):
        from repro.io import write_edges_jsonl, write_nodes_jsonl

        path = write_nodes_jsonl(
            graph, "Person", tmp_path / "p.jsonl",
            chunk_size=chunk_size,
        )
        lines = read_text(path).splitlines()
        assert len(lines) == graph.num_nodes("Person")
        for i, (line, record) in enumerate(
            zip(lines, graph.node_records("Person"))
        ):
            expected = json.dumps({
                k: (int(v) if isinstance(v, np.integer) else
                    str(v) if isinstance(v, np.str_) else v)
                for k, v in record.items()
            })
            assert line == expected, i

        path = write_edges_jsonl(
            graph, "knows", tmp_path / "k.jsonl",
            chunk_size=chunk_size,
        )
        lines = read_text(path).splitlines()
        assert len(lines) == graph.num_edges("knows")

    def test_graphml_chunk_invariance(self, graph, tmp_path):
        from repro.io import write_graphml

        reference = write_graphml(
            graph, "knows", tmp_path / "whole.graphml",
            chunk_size=10**9,
        )
        chunked = write_graphml(
            graph, "knows", tmp_path / "chunked.graphml",
            chunk_size=3,
        )
        assert chunked.read_bytes() == reference.read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "jsonl", "edgelist"])
    def test_chunk_size_never_changes_bytes(self, graph, tmp_path,
                                            fmt):
        baseline = export_graph(
            graph, make_sink(fmt, tmp_path / "whole",
                             chunk_size=10**9)
        )
        for chunk_size in (1, 7, 64):
            out = tmp_path / f"c{chunk_size}"
            export_graph(
                graph, make_sink(fmt, out, chunk_size=chunk_size)
            )
            for path in baseline:
                assert (out / path.name).read_bytes() == \
                    path.read_bytes(), (fmt, chunk_size, path.name)


class TestGzip:
    def test_deterministic_bytes(self, tmp_path):
        table = PropertyTable("t", np.arange(100, dtype=np.int64))
        sink_a = CsvSink(tmp_path / "a", compress=True)
        sink_b = CsvSink(tmp_path / "b", compress=True)
        path_a = sink_a.write_property_table(table)
        path_b = sink_b.write_property_table(table)
        assert path_a.name == "t.csv.gz"
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_gz_content_equals_uncompressed(self, graph, tmp_path):
        plain = export_graph(
            graph, CsvSink(tmp_path / "plain", chunk_size=13)
        )
        export_graph(
            graph,
            CsvSink(tmp_path / "gz", chunk_size=13, compress=True),
        )
        for path in plain:
            if path.name == "manifest.json":
                continue
            packed = tmp_path / "gz" / (path.name + ".gz")
            assert gzip.decompress(packed.read_bytes()) == \
                path.read_bytes()

    def test_sources_read_compressed(self, graph, tmp_path):
        export_graph(
            graph, CsvSink(tmp_path / "out", compress=True)
        )
        source = CsvSource(tmp_path / "out")
        pt = source.read_property_table("Person.country")
        assert pt == graph.node_properties["Person.country"]


class TestManifestRoundTrip:
    CASES = [
        np.array([5, -2, 0], dtype=np.int64),
        np.array([1.5, np.nan, np.inf], dtype=np.float64),
        np.array([True, False, True]),
        np.array(["a", "bb é", ""], dtype="<U8"),
        np.array(TRICKY_STRINGS, dtype=object),
        np.array(["2020-01-01", "1999-12-31"], dtype="datetime64[D]"),
        np.array([], dtype=np.float64),
        np.array([], dtype=object),
    ]

    @pytest.mark.parametrize("values", CASES,
                             ids=lambda v: f"{v.dtype}-{len(v)}")
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_property_dtype_preserved(self, tmp_path, fmt, values,
                                      one_table_graph):
        export_graph(one_table_graph(values),
                     make_sink(fmt, tmp_path / fmt, chunk_size=2))
        source = make_source(fmt, tmp_path / fmt)
        assert source.property_table_names() == ["T.x"]
        back = source.read_property_table("T.x")
        assert back.values.dtype == values.dtype
        if values.dtype.kind == "f":
            assert np.array_equal(back.values, values, equal_nan=True)
        else:
            assert list(back.values) == list(values)

    def test_jsonl_preserves_none(self, tmp_path, one_table_graph):
        values = np.array(["a", None, ""], dtype=object)
        export_graph(one_table_graph(values), JsonlSink(tmp_path / "o"))
        back = JsonlSource(tmp_path / "o").read_property_table("T.x")
        assert list(back.values) == ["a", None, ""]

    def test_jsonl_keeps_multi_value_lists(self, tmp_path,
                                           one_table_graph):
        """Equal-length sets read back one list per row, not a 2-D
        array; ragged ones too."""
        for rows in ([(1, 2), (3, 4)], [(1, 2), (3,), ()]):
            values = np.empty(len(rows), dtype=object)
            values[:] = rows
            out = tmp_path / str(len(rows))
            export_graph(one_table_graph(values), JsonlSink(out))
            back = JsonlSource(out).read_property_table("T.x").values
            assert back.shape == (len(rows),)
            assert list(back) == [list(row) for row in rows]

    @pytest.mark.parametrize("rows", [
        [[1, 2], [3, 4]], [[1, 2], [3], []], [[1, 2], None],
    ], ids=["equal", "ragged", "none"])
    @pytest.mark.parametrize("dtype", [object, None],
                             ids=["manifest", "inferred"])
    def test_jsonl_object_column_is_one_object_per_row(self, rows,
                                                       dtype):
        from repro.io.jsonl import _coerce_values

        back = _coerce_values(rows, dtype)
        assert back.dtype == object and back.shape == (len(rows),)
        assert list(back) == rows

    @pytest.mark.parametrize("fmt", ["csv", "jsonl", "edgelist"])
    def test_edge_table_exact(self, tmp_path, fmt, one_table_graph):
        table = EdgeTable(
            "likes", [0, 2, 1], [3, 1, 0],
            num_tail_nodes=5, num_head_nodes=7, directed=True,
        )
        export_graph(one_table_graph(edges=table),
                     make_sink(fmt, tmp_path / fmt, chunk_size=2))
        source = make_source(fmt, tmp_path / fmt)
        assert source.edge_table_names() == ["likes"]
        assert source.read_edge_table("likes") == table

    @pytest.mark.parametrize("fmt", ["csv", "jsonl", "edgelist"])
    def test_empty_edge_table(self, tmp_path, fmt, one_table_graph):
        table = EdgeTable("e", [], [])
        export_graph(one_table_graph(edges=table),
                     make_sink(fmt, tmp_path / fmt))
        back = make_source(fmt, tmp_path / fmt).read_edge_table("e")
        assert back == table

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_whole_graph_tables(self, graph, tmp_path, fmt):
        export_graph(graph, make_sink(fmt, tmp_path / "out",
                                      chunk_size=17))
        source = make_source(fmt, tmp_path / "out")
        properties = source.property_tables()
        edges = source.edge_tables()
        assert set(properties) == {*graph.node_properties,
                                   *graph.edge_properties}
        assert set(edges) == set(graph.edge_tables)
        for key, pt in {**graph.node_properties,
                        **graph.edge_properties}.items():
            assert properties[key].values.dtype == pt.values.dtype
            assert list(properties[key].values) == list(pt.values)
        for key, et in graph.edge_tables.items():
            back = edges[key]
            assert np.array_equal(back.tails, et.tails)
            assert np.array_equal(back.heads, et.heads)
            assert back.num_tail_nodes == et.num_tail_nodes
            assert back.num_head_nodes == et.num_head_nodes
            assert back.directed == et.directed


    @pytest.mark.parametrize("recipe", [
        None, ("message_cascades", {"Message": 500}),
        ("infra_telemetry", {"Host": 400}),
    ], ids=["running_example", "message_cascades", "infra_telemetry"])
    def test_jsonl_export_reads_back_every_table(self, graph, tmp_path,
                                                 recipe):
        """Dtypes, values (multi-value sets as lists), id spaces and
        direction of every table come back through ``JsonlSource``."""
        if recipe is not None:
            from repro.scenarios import compile_scenario
            from repro.scenarios.zoo import load_zoo

            compiled = compile_scenario(load_zoo(recipe[0]),
                                        scale=recipe[1])
            graph = compiled.generator().generate()
        export_graph(graph, JsonlSink(tmp_path, chunk_size=17))
        source = JsonlSource(tmp_path)
        tables = {**graph.node_properties, **graph.edge_properties}
        assert sorted(source.property_table_names()) == sorted(tables)
        for key, table in tables.items():
            values = np.asarray(table.values)
            back = source.read_property_table(key).values
            assert back.dtype == values.dtype, key
            if values.dtype.kind == "f":
                assert np.array_equal(back, values, equal_nan=True), key
            else:
                assert list(back) == [
                    list(v) if isinstance(v, tuple) else v
                    for v in values
                ], key
        assert sorted(source.edge_table_names()) == \
            sorted(graph.edge_tables)
        for key, table in graph.edge_tables.items():
            back = source.read_edge_table(key)
            assert np.array_equal(back.tails, table.tails), key
            assert np.array_equal(back.heads, table.heads), key
            assert (back.num_tail_nodes, back.num_head_nodes,
                    back.directed) == (table.num_tail_nodes,
                                       table.num_head_nodes,
                                       table.directed), key


class TestStreamingProtocol:
    @pytest.mark.parametrize("fmt",
                             ["csv", "jsonl", "edgelist", "graphml"])
    def test_engine_streamed_equals_post_hoc(self, tmp_path, fmt):
        schema = social_network_schema(num_countries=6)
        reference_graph = GraphGenerator(
            schema, {"Person": 80}, seed=3
        ).generate()
        baseline = export_graph(
            reference_graph,
            make_sink(fmt, tmp_path / "post", chunk_size=19),
        )
        sink = make_sink(fmt, tmp_path / "streamed", chunk_size=19)
        GraphGenerator(schema, {"Person": 80}, seed=3).generate(
            sink=sink
        )
        assert sorted(p.name for p in sink.written) == \
            sorted(p.name for p in baseline)
        for path in baseline:
            streamed = tmp_path / "streamed" / path.name
            assert streamed.read_bytes() == path.read_bytes(), \
                path.name

    @pytest.mark.parametrize("fmt", ["csv", "jsonl", "graphml"])
    def test_files_are_written_when_their_last_table_lands(
            self, graph, tmp_path, fmt):
        """Each file is written on the announcement of the last table
        it joins, not at finish()."""
        sink = make_sink(fmt, tmp_path / "o")
        sink.begin(graph)
        for stem, keys in sink.files(graph.schema):
            for key in keys[:-1]:
                sink.on_table(key)
            before = len(sink.written)
            sink.on_table(keys[-1])
            assert [p.name for p in sink.written[before:]] == \
                [sink.data_path(stem).name], stem
        before = len(sink.written)
        assert [p.name for p in sink.finish()[before:]] == \
            ["manifest.json"]

    @pytest.mark.parametrize("fmt", ["csv", "jsonl", "graphml"])
    def test_finish_skips_incomplete_files(self, tmp_path, fmt):
        """finish() on a partial graph writes every file whose tables
        all exist and skips the rest instead of crashing."""
        schema = social_network_schema(num_countries=6)
        graph = GraphGenerator(
            schema, {"Person": 30}, seed=2
        ).generate()
        del graph.node_properties["Person.country"]
        del graph.edge_properties["knows.creationDate"]
        sink = make_sink(fmt, tmp_path / "o")
        sink.begin(graph)
        names = {p.name for p in sink.finish()}
        written, skipped = {
            "csv": ({"Person.name.csv", "knows.csv", "creates.csv"},
                    {"Person.country.csv", "knows.creationDate.csv"}),
            "jsonl": ({"Message.jsonl", "creates.jsonl"},
                      {"Person.jsonl", "knows.jsonl"}),
            "graphml": (set(), {"knows.graphml"}),
        }[fmt]
        assert names >= written
        assert not names & skipped

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown sink format"):
            make_sink("parquet", tmp_path)
        with pytest.raises(ValueError, match="no source"):
            make_source("graphml", tmp_path)

    def test_edgelist_sink_rejects_property_tables(self, tmp_path):
        sink = EdgelistSink(tmp_path)
        with pytest.raises(NotImplementedError):
            sink.write_property_table(
                PropertyTable("t", np.array([1]))
            )

    def test_bad_chunk_size_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="chunk_size"):
            CsvSink(tmp_path, chunk_size=0)

    def test_graphml_sink_writes_monopartite_only(self, graph,
                                                  tmp_path):
        written = export_graph(graph, GraphmlSink(tmp_path / "o"))
        names = {p.name for p in written}
        assert "knows.graphml" in names
        assert "creates.graphml" not in names

    def test_jsonl_manifest_points_tables_at_type_files(self, graph,
                                                        tmp_path):
        export_graph(graph, JsonlSink(tmp_path))
        tables = JsonlSource(tmp_path).manifest["tables"]
        assert tables["Person.country"]["file"] == "Person.jsonl"
        assert tables["knows.creationDate"]["file"] == "knows.jsonl"
        assert tables["knows"] == {
            "kind": "edge", "file": "knows.jsonl",
            "rows": graph.num_edges("knows"),
            "num_tail_nodes": graph.num_nodes("Person"),
            "num_head_nodes": graph.num_nodes("Person"),
            "directed": graph.edge_tables["knows"].directed,
        }


class TestWriterLoop:
    """``chunks.write_chunks`` pages every lazy table class through
    ``read_range``; the planted spooled world below holds them all."""

    @pytest.fixture(scope="class")
    def planted(self):
        """A planted world over spooled tables: every lazy table
        class, with shard geometry unrelated to the chunk size."""
        from repro.scenarios import compile_scenario, run_scenario
        from repro.scenarios.zoo import load_zoo

        compiled = compile_scenario(
            load_zoo("fraud_ring_social"), scale={"Person": 150}
        )
        graph, _, _ = run_scenario(
            compiled, validate=False, shard_rows=64
        )
        yield graph
        graph.cleanup()

    def test_fixture_covers_every_lazy_table(self, planted):
        tables = (
            list(planted.node_properties.values())
            + list(planted.edge_tables.values())
            + list(planted.edge_properties.values())
        )
        assert {type(table).__name__ for table in tables} >= {
            "SpooledPropertyTable", "OverlayPropertyTable",
            "OverlayEdgeTable", "AppendedPropertyTable",
        }
        assert type(planted.base.edge_tables["knows"]).__name__ == \
            "SpooledEdgeTable"


class TestSourceFallbacks:
    def test_edgelist_source_uses_manifest_shape(self, tmp_path):
        """The generic reader path hands the manifest's id-space sizes
        to ``read_edgelist`` (isolated nodes survive the round trip)."""
        table = EdgeTable("e", [0, 1], [1, 2], num_tail_nodes=9,
                          directed=True)
        sink = EdgelistSink(tmp_path)
        sink.write_edge_table(table)
        sink.finish()
        assert EdgelistSource(tmp_path).read_edge_table("e") == table

    def test_csv_source_without_manifest(self, tmp_path):
        from repro.io import write_property_table

        table = PropertyTable("t", np.arange(5, dtype=np.int64))
        write_property_table(table, tmp_path / "t.csv")
        source = CsvSource(tmp_path)
        assert source.manifest is None
        back = source.read_property_table("t")
        assert np.array_equal(back.values, table.values)

    def test_missing_table_raises(self, tmp_path):
        source = EdgelistSource(tmp_path)
        with pytest.raises(FileNotFoundError):
            source.read_edge_table("ghost")

    def test_listing_without_manifest_names_it(self, graph, tmp_path):
        """Only the manifest lists tables: without it a listing is an
        error naming it, not an empty graph."""
        export_graph(graph, CsvSink(tmp_path))
        (tmp_path / "manifest.json").unlink()
        source = CsvSource(tmp_path)
        for listing in (source.property_table_names,
                        source.edge_table_names, source.property_tables):
            with pytest.raises(FileNotFoundError, match="manifest.json"):
                listing()
        assert len(source.read_property_table("Person.country")) == \
            graph.node_counts["Person"]

    def test_jsonl_source_refuses_without_manifest(self, graph, tmp_path):
        export_graph(graph, JsonlSink(tmp_path))
        (tmp_path / "manifest.json").unlink()
        with pytest.raises(FileNotFoundError, match="manifest.json"):
            JsonlSource(tmp_path)


# -- the compiled text kernel (io/_ckernel.py) --------------------------------

INT_DTYPES = [np.int8, np.int16, np.int32, np.int64,
              np.uint8, np.uint16, np.uint32, np.uint64]
#: Chunk starts straddling a digit boundary of the id column.
BOUNDARY_STARTS = [0, 8, 9, 98, 99_998, 99_999, 10**12 - 2]


def reference_rows(start, columns, sep, term):
    """Per-row ``str()`` loop: what every fast path must reproduce."""
    rows = []
    for i, row in enumerate(zip(*(c.tolist() for c in columns))):
        cells = [str(v) for v in row]
        if start is not None:
            cells.insert(0, str(start + i))
        rows.append(sep.join(cells) + term)
    return "".join(rows)


def extremes(dtype, n=5):
    if dtype is np.bool_:
        return np.array([True, False, False, True, True][:n])
    info = np.iinfo(dtype)
    return np.array(
        [info.min, info.max, 0, info.max // 3, info.min // 7][:n],
        dtype=dtype,
    )


class TestTextKernel:
    @pytest.mark.parametrize("dtype", INT_DTYPES + [np.bool_])
    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_property_chunk_every_integer_dtype(self, dtype, n):
        from repro.io.chunks import format_property_csv_chunk

        values = extremes(dtype, n)
        for start in BOUNDARY_STARTS:
            assert format_property_csv_chunk(start, values) == \
                reference_rows(start, [values], ",", "\r\n")

    @pytest.mark.parametrize("dtype", INT_DTYPES)
    def test_edge_chunks_every_integer_dtype(self, dtype):
        from repro.io.chunks import (
            format_edge_csv_chunk,
            format_edgelist_chunk,
        )

        tails, heads = extremes(dtype), extremes(dtype)[::-1]
        for start in BOUNDARY_STARTS:
            assert format_edge_csv_chunk(start, tails, heads) == \
                reference_rows(start, [tails, heads], ",", "\r\n")
        assert format_edgelist_chunk(tails, heads) == \
            reference_rows(None, [tails, heads], " ", "\n")
        assert format_edge_csv_chunk(0, tails[:0], heads[:0]) == ""
        assert format_edgelist_chunk(tails[:0], heads[:0]) == ""

    def test_strided_byteswapped_and_memmap_columns(self, tmp_path):
        from repro.io.chunks import format_edge_csv_chunk
        from repro.io.spool import SpillView

        base = np.arange(-50, 50, dtype=np.int64) * 10**15
        np.save(tmp_path / "col.npy", base)
        view = SpillView(tmp_path / "col.npy")
        try:
            for tails, heads in [
                (base[::3], base[1::3][:len(base[::3])]),
                (base[::-1], base),
                (base.astype(">i8"), base.astype(np.int32)),
                (view[10:60], view[40:90]),
                (view[::2], view[1::2]),
            ]:
                assert format_edge_csv_chunk(99_990, tails, heads) == \
                    reference_rows(99_990, [tails, heads], ",", "\r\n")
        finally:
            view.close()

    def test_string_fields_are_quoted_by_the_kernel(self):
        from repro.io import _ckernel
        from repro.io.chunks import format_property_csv_chunk

        def legacy(start, values):
            buf = io.StringIO()
            writer = csv.writer(buf)
            for i, v in enumerate(values):
                writer.writerow([start + i, "" if v is None else v])
            return buf.getvalue()

        plain = ["ab", "", "unicode éß中文", " x ", "tab\t", None, "z"]
        for strings in (plain, TRICKY_STRINGS, ["new\nline"], [""]):
            for dtype in (object, str):
                if dtype is str and None in strings:
                    continue
                values = np.array(strings, dtype=dtype)
                assert format_property_csv_chunk(9, values) == \
                    legacy(9, strings)
        if _ckernel.load_text_ckernel() is not None:
            from repro.tables import StringColumn

            for bad in ("a,b", 'a"', "a\r", "a\nb", "a\0"):
                column = StringColumn.from_strings(["x", bad])
                assert _ckernel.format_rows(
                    0, (column,), ",", "\r\n") == legacy(0, ["x", bad])
            assert _ckernel.format_rows(
                0, (["a", "b"],), ",", "\r\n") is None  # not a column

    def test_float_datetime_and_sequence_values(self):
        from repro.io.chunks import format_property_csv_chunk

        floats = np.array([1.5, -0.0, np.nan, np.inf, 1e300])
        days = np.array(["2020-01-01", "1970-12-31"],
                        dtype="datetime64[D]")
        for values in (floats, days, [3, 4, 5], (True, False)):
            column = np.asarray(values)
            expected = "".join(
                f"{7 + i},{v}\r\n" for i, v in enumerate(column)
            )
            assert format_property_csv_chunk(7, values) == expected

    def test_kernel_equals_python_path(self, monkeypatch):
        from repro.io import _ckernel
        from repro.io.chunks import (
            format_edge_csv_chunk,
            format_edgelist_chunk,
            format_property_csv_chunk,
        )

        rng = np.random.default_rng(5)
        tails = rng.integers(-2**63, 2**63 - 1, 4096, dtype=np.int64)
        heads = rng.integers(0, 2**64 - 1, 4096, dtype=np.uint64)
        names = np.array([f"name {i}" for i in range(4096)], dtype=object)

        def run():
            return (
                format_edge_csv_chunk(99_000, tails, heads),
                format_edgelist_chunk(tails, heads),
                format_property_csv_chunk(99_000, heads),
                format_property_csv_chunk(99_000, tails > 0),
                format_property_csv_chunk(99_000, names),
            )

        if _ckernel.load_text_ckernel() is None:
            pytest.skip("no compiled text kernel on this host")
        fast = run()
        monkeypatch.setattr(_ckernel, "load_text_ckernel", lambda: None)
        assert run() == fast

    def test_eight_threads_format_identical_text(self):
        """The serve handler threads and the thread backend share one
        loaded library; the loops keep no state between calls."""
        import sys
        from concurrent.futures import ThreadPoolExecutor

        from repro.io.chunks import (
            format_edge_csv_chunk,
            format_property_csv_chunk,
        )

        rng = np.random.default_rng(11)
        tails = rng.integers(0, 10**9, 20_000)
        heads = rng.integers(0, 10**9, 20_000)
        names = np.array([f"n{i}" for i in range(20_000)], dtype=object)
        expected = (
            reference_rows(99_990, [tails, heads], ",", "\r\n"),
            "".join(f"{5 + i},n{i}\r\n" for i in range(20_000)),
        )

        def job(_):
            return (format_edge_csv_chunk(99_990, tails, heads),
                    format_property_csv_chunk(5, names))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(job, range(32), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert all(result == expected for result in results)

    def test_rows_never_write_past_their_bound(self):
        """A buffer of exactly the size ``_arguments`` computes, then a
        canary tail: the loop's over-stores (the 8-byte digit groups,
        the 24-byte id copy) stay inside the size, at every digit
        count, every dtype extreme and every power-of-ten id."""
        from repro.io import _ckernel

        lib = _ckernel.load_text_ckernel()
        if lib is None:
            pytest.skip("no compiled text kernel on this host")
        canary = 64

        def formatted(start, columns, sep=",", term="\r\n"):
            size, pointers, kinds, _buffers = _ckernel._arguments(
                start, columns, term)
            out = np.full(size + canary, 0xA5, dtype=np.uint8)
            written = lib.format_rows(
                len(columns[0]), -1 if start is None else start,
                kinds.size, pointers, kinds,
                sep.encode(), term.encode(), out,
            )
            assert written <= size
            assert (out[size:] == 0xA5).all(), (start, columns)
            assert out[:written].tobytes().decode() == reference_rows(
                start, columns, sep, term)

        widths = [10 ** (d - 1) for d in range(1, 21)]
        widths += [10 ** d - 1 for d in range(1, 21)]
        columns = [
            np.array([v for v in widths if v < 2**63] + [-(2**63)]
                     + [-v for v in widths if v < 2**63], dtype=np.int64),
            np.array([v for v in widths if v < 2**64] + [2**64 - 1],
                     dtype=np.uint64),
            np.array([True, False, False, True]),
        ]
        # Ids crossing every power of ten, and the last ids there are.
        starts = [None, 2**63 - 1 - 3] + [10**d - 2 for d in range(1, 19)]
        for column in columns:
            formatted(0, [column])
            formatted(None, [column, column[::-1]], " ", "\n")
            for i in range(len(column)):  # each value written last
                for start in starts + [2**63 - 2]:
                    formatted(start, [column[i:i + 1]] * 2)
        for start in starts:
            for column in (np.zeros(3, np.int64), columns[2][:3]):
                formatted(start, [column], ",", "")


_GOLDEN_EXPORT = """
import sys
from pathlib import Path
golden, out = Path(sys.argv[1]), Path(sys.argv[2])
sys.path.insert(0, str(golden))
from regenerate import build_graph
from repro.io import export_graph, make_sink, write_edgelist
from repro.io._ckernel import load_text_ckernel
graph = build_graph()
export_graph(graph, make_sink("csv", out, chunk_size=7))
for name, table in graph.edge_tables.items():
    write_edgelist(table, out / f"{name}.edges", chunk_size=7)
print("kernel" if load_text_ckernel() is not None else "python")
"""


def _run_golden_export(tmp_path, **env):
    import os
    import subprocess
    import sys
    from pathlib import Path

    golden = Path(__file__).resolve().parent / "golden"
    out = tmp_path / "out"
    out.mkdir()
    done = subprocess.run(
        [sys.executable, "-c", _GOLDEN_EXPORT, str(golden), str(out)],
        env={**os.environ, **env}, capture_output=True, text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    fixtures = [
        p for sub in ("csv", "edgelist")
        for p in sorted((golden / sub).iterdir()) if p.is_file()
    ]
    assert len(fixtures) >= 12
    for fixture in fixtures:
        assert (out / fixture.name).read_bytes() == \
            fixture.read_bytes(), fixture.name
    return done.stdout.split()[-1]


class TestKernelUnavailable:
    """Golden bytes when no compiler works (``tests/test_golden.py``
    runs them with the kernels switched off)."""

    def test_golden_with_a_failing_compiler(self, tmp_path):
        cache = tmp_path / "cold-cache"
        assert _run_golden_export(
            tmp_path, CC="/bin/false",
            REPRO_CKERNEL_CACHE=str(cache)) == "python"
        assert not list(cache.glob("*.so"))


def _format_in_worker(seed):
    from repro.io._ckernel import load_text_ckernel
    from repro.io.chunks import format_edge_csv_chunk

    column = np.arange(seed, seed + 100, dtype=np.int64)
    return (load_text_ckernel() is not None,
            format_edge_csv_chunk(seed, column, column))


class TestKernelCache:
    def test_forked_workers_compile_a_cold_cache_once(
            self, tmp_path, monkeypatch):
        import shutil

        from repro.core.procpool import ShardPool
        from repro.io import _ckernel

        compiler = shutil.which("cc") or shutil.which("gcc")
        if compiler is None or _ckernel.ckernels_disabled():
            pytest.skip("no C compiler")
        log = tmp_path / "cc.log"
        wrapper = tmp_path / "cc-logged"
        wrapper.write_text(
            f'#!/bin/sh\necho run >> "{log}"\nexec "{compiler}" "$@"\n'
        )
        wrapper.chmod(0o755)
        monkeypatch.setenv("CC", str(wrapper))
        monkeypatch.setenv("REPRO_CKERNEL_CACHE", str(tmp_path / "cache"))
        _ckernel.load_text_ckernel.cache_clear()
        try:
            with ShardPool(backend="process", workers=4) as pool:
                results = list(pool.ordered_map(
                    _format_in_worker, [(seed,) for seed in range(16)]
                ))
        finally:
            _ckernel.load_text_ckernel.cache_clear()
        for seed, (loaded, text) in enumerate(results):
            column = np.arange(seed, seed + 100)
            assert loaded
            assert text == reference_rows(
                seed, [column, column], ",", "\r\n")
        assert log.read_text().split() == ["run"]

    def test_cache_directory_is_created_private(self, tmp_path,
                                                monkeypatch):
        from repro.core.ccompile import compile_cached

        cache = tmp_path / "nested" / "cache"
        monkeypatch.setenv("REPRO_CKERNEL_CACHE", str(cache))
        lib = compile_cached("int answer(void) { return 42; }", "t")
        if lib is None:
            pytest.skip("no C compiler")
        assert lib.answer() == 42
        assert cache.stat().st_mode & 0o077 == 0

    @pytest.mark.parametrize("mode", [0o770, 0o707, 0o777])
    def test_writable_by_others_is_refused(self, tmp_path, monkeypatch,
                                           mode):
        from repro.core.ccompile import compile_cached
        from repro.io import _ckernel
        from repro.io.chunks import format_edge_csv_chunk

        cache = tmp_path / "cache"
        cache.mkdir()
        cache.chmod(mode)
        monkeypatch.setenv("REPRO_CKERNEL_CACHE", str(cache))
        assert compile_cached("int f(void) { return 1; }", "t") is None
        assert not list(cache.iterdir())
        _ckernel.load_text_ckernel.cache_clear()
        try:
            assert _ckernel.load_text_ckernel() is None
            column = np.arange(3)
            assert format_edge_csv_chunk(0, column, column) == \
                "0,0,0\r\n1,1,1\r\n2,2,2\r\n"
        finally:
            _ckernel.load_text_ckernel.cache_clear()

    def test_foreign_owner_is_refused(self, tmp_path, monkeypatch):
        import os

        from repro.core import ccompile

        cache = tmp_path / "cache"
        cache.mkdir(mode=0o700)
        monkeypatch.setenv("REPRO_CKERNEL_CACHE", str(cache))
        monkeypatch.setattr(
            ccompile.os, "getuid", lambda: os.stat(cache).st_uid + 1
        )
        assert ccompile.compile_cached(
            "int f(void) { return 1; }", "t") is None
        assert not list(cache.iterdir())


#: Entries ``csv.writer`` must quote, double or pass through: quote,
#: delimiter, CR, LF, NUL, empty, multi-byte, and a duplicate entry.
ADVERSARIAL = ['"', ",", "\r", "\n", "a\0b", "", "naïve 日本",
               'say "hi", then\r\nleave', "plain", "plain"]


@pytest.fixture(params=["kernel", "no-ckernel"])
def text_path(request, monkeypatch):
    """Both CSV paths: the compiled row kernel and the Python one."""
    from repro.io import _ckernel

    if request.param == "no-ckernel":
        monkeypatch.setenv("REPRO_NO_CKERNEL", "1")
    elif _ckernel.load_text_ckernel() is None:
        pytest.skip("no compiled text kernel on this host")
    return request.param


def _csv_writer_rows(start, values):
    buf = io.StringIO()
    writer = csv.writer(buf)
    for i, v in enumerate(values):
        writer.writerow([start + i, v])
    return buf.getvalue()


class TestStringColumnCsv:
    """String columns are formatted from their bytes, on either path,
    exactly as ``csv.writer`` writes their ``str`` rows."""

    def test_bytes_equal_csv_writer(self, text_path):
        from repro.io.chunks import format_property_csv_chunk
        from repro.tables import StringColumn

        vocabulary = StringColumn.from_strings(ADVERSARIAL)
        rows = np.array([9, 0, 1, 2, 3, 4, 5, 6, 7, 8, 8, 0, 6])
        ragged = StringColumn.from_strings(ADVERSARIAL)
        for column in (
            ragged, ragged[3:8],                      # ragged, a view
            vocabulary.take(rows), vocabulary.take(rows)[4:],  # dictionary
            ragged.take(rows[::-1]),                  # a ragged gather
            np.array(ADVERSARIAL, dtype=object),      # stringified
        ):
            values = list(column)
            assert format_property_csv_chunk(11, column) == \
                _csv_writer_rows(11, values)

    def test_export_bytes_equal_csv_writer(self, text_path, tmp_path):
        from repro.io.csv_io import write_property_table
        from repro.tables import StringColumn

        rows = np.arange(40) * 3 % len(ADVERSARIAL)
        column = StringColumn.from_strings(ADVERSARIAL).take(rows)
        path = write_property_table(
            PropertyTable("T.x", column), tmp_path / "x.csv", chunk_size=7
        )
        expected = "id,value\r\n" + _csv_writer_rows(
            0, [ADVERSARIAL[k] for k in rows])
        assert path.read_bytes() == expected.encode("utf-8")

    @pytest.mark.parametrize("values, row", [
        (["ok", "b\ud800", "ok"], 1),   # ragged
        ("dictionary", 2),
        ("object", 1),
    ])
    def test_lone_surrogate_is_a_schema_error(self, text_path, tmp_path,
                                              values, row):
        from repro.core.schema import SchemaError
        from repro.io.csv_io import write_property_table
        from repro.tables import StringColumn

        if values == "dictionary":
            values = StringColumn.from_strings(["b\ud800", "ok"]).take(
                [1, 1, 0])
        elif values == "object":
            values = np.array(["ok", "b\udfff"], dtype=object)
        else:
            values = StringColumn.from_strings(values)
        with pytest.raises(
            SchemaError,
            match=rf"PT 'T\.x': row {row} is not valid UTF-8",
        ):
            write_property_table(
                PropertyTable("T.x", values), tmp_path / "x.csv")

    def test_lone_surrogate_in_a_text_vocabulary(self, text_path,
                                                 tmp_path):
        """The text kernel's ``surrogatepass`` vocabularies reach the
        CSV sink as the generated table's error, not a bare
        ``UnicodeEncodeError`` from the file handle."""
        from repro.core import NodeType, PropertyDef, Schema
        from repro.core.schema import GeneratorSpec, SchemaError

        schema = Schema(node_types=[NodeType("T", properties=[
            PropertyDef("x", "string", GeneratorSpec("text", {
                "vocabulary": ["b\ud800"], "min_words": 1,
                "max_words": 2})),
        ])])
        with pytest.raises(SchemaError, match=r"PT 'T\.x': row 0 "):
            GraphGenerator(schema, {"T": 5}, seed=1).generate(
                make_sink("csv", tmp_path / "out"))
