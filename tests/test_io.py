"""Tests for the I/O connectors."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import GraphGenerator
from repro.datasets import social_network_schema
from repro.io import (
    export_graph,
    from_networkx,
    make_sink,
    property_graph_to_networkx,
    read_edge_table,
    read_edgelist,
    read_property_table,
    to_networkx,
    write_edge_table,
    write_edgelist,
    write_graphml,
    write_property_table,
)
from repro.tables import EdgeTable, PropertyTable


@pytest.fixture(scope="module")
def graph():
    schema = social_network_schema(num_countries=8)
    return GraphGenerator(schema, {"Person": 120}, seed=3).generate()


class TestCsvRoundTrip:
    def test_property_table_int(self, tmp_path):
        pt = PropertyTable("T.x", np.array([5, 6, 7]))
        path = write_property_table(pt, tmp_path / "x.csv")
        back = read_property_table(path, name="T.x")
        assert back == pt

    def test_property_table_string(self, tmp_path):
        pt = PropertyTable(
            "T.s", np.array(["a", "b,c", 'd"e'], dtype=object)
        )
        path = write_property_table(pt, tmp_path / "s.csv")
        back = read_property_table(path, name="T.s")
        assert list(back.values) == list(pt.values)

    def test_property_table_float(self, tmp_path):
        pt = PropertyTable("T.f", np.array([1.5, -2.25]))
        path = write_property_table(pt, tmp_path / "f.csv")
        back = read_property_table(path, name="T.f")
        assert np.allclose(back.values, pt.values)

    def test_forced_dtype(self, tmp_path):
        pt = PropertyTable("T.x", np.array([1, 2]))
        path = write_property_table(pt, tmp_path / "x.csv")
        back = read_property_table(path, dtype="object")
        assert back.values.dtype == object

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n0,1\n")
        with pytest.raises(ValueError, match="header"):
            read_property_table(path)

    def test_non_dense_ids_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,value\n0,a\n2,b\n")
        with pytest.raises(ValueError, match="non-dense"):
            read_property_table(path)

    def test_edge_table(self, tmp_path):
        et = EdgeTable("knows", [0, 1], [1, 2], num_tail_nodes=3)
        path = write_edge_table(et, tmp_path / "e.csv")
        back = read_edge_table(path, name="knows", num_tail_nodes=3)
        assert back == et

    def test_export_graph(self, graph, tmp_path):
        written = export_graph(graph, make_sink("csv", tmp_path / "out"))
        names = {p.name for p in written}
        assert "Person.country.csv" in names
        assert "knows.csv" in names
        assert "knows.creationDate.csv" in names


class TestJsonl:
    def test_node_records(self, graph, tmp_path):
        written = export_graph(graph, make_sink("jsonl", tmp_path / "out"))
        person_file = next(
            p for p in written if p.name == "Person.jsonl"
        )
        lines = person_file.read_text().strip().split("\n")
        assert len(lines) == 120
        record = json.loads(lines[0])
        assert set(record) >= {"id", "country", "sex", "name"}

    def test_edge_records(self, graph, tmp_path):
        written = export_graph(graph, make_sink("jsonl", tmp_path / "out"))
        knows_file = next(p for p in written if p.name == "knows.jsonl")
        record = json.loads(knows_file.read_text().split("\n")[0])
        assert set(record) >= {"id", "tail", "head", "creationDate"}
        assert isinstance(record["creationDate"], int)


class TestEdgelist:
    def test_round_trip(self, tmp_path):
        et = EdgeTable("e", [0, 3], [1, 2])
        path = write_edgelist(et, tmp_path / "g.edges", comment="test")
        back = read_edgelist(path, name="e")
        assert np.array_equal(back.tails, et.tails)
        assert np.array_equal(back.heads, et.heads)

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("# header\n0 1\n\n2 3\n")
        back = read_edgelist(path)
        assert len(back) == 2

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("0\n")
        with pytest.raises(ValueError, match="expected"):
            read_edgelist(path)


class TestNetworkx:
    @pytest.fixture(autouse=True)
    def _networkx(self):
        pytest.importorskip("networkx")

    def test_to_networkx_monopartite(self, triangle_table):
        graph = to_networkx(triangle_table)
        assert graph.number_of_nodes() == 3
        assert graph.number_of_edges() == 3
        assert not graph.is_directed()

    def test_to_networkx_directed(self):
        table = EdgeTable(
            "e", [0], [1], num_tail_nodes=2, directed=True
        )
        assert to_networkx(table).is_directed()

    def test_to_networkx_bipartite(self):
        table = EdgeTable(
            "e", [0], [1], num_tail_nodes=2, num_head_nodes=3,
            directed=True,
        )
        graph = to_networkx(table)
        assert graph.number_of_nodes() == 5
        assert graph.has_edge("t0", "h1")

    def test_from_networkx_round_trip(self, small_rmat):
        back = from_networkx(to_networkx(small_rmat))
        assert back.num_edges == small_rmat.num_edges
        assert back.num_tail_nodes == small_rmat.num_nodes

    def test_property_graph_to_networkx(self, graph):
        nxg = property_graph_to_networkx(graph, "knows")
        node = next(iter(nxg.nodes))
        assert "country" in nxg.nodes[node]
        edge = next(iter(nxg.edges))
        assert "creationDate" in nxg.edges[edge]


def test_repro_imports_without_networkx():
    """networkx is optional: the package, its CLI and its scenarios
    import without loading it — and with it unimportable — and the
    adapter that needs it says so."""
    def run(script):
        src = str(Path(repro.__file__).parents[1])
        return subprocess.run(
            [sys.executable, "-c", script], check=True, text=True,
            capture_output=True, env={**os.environ, "PYTHONPATH": src},
        ).stdout.strip()

    assert run(
        "import sys, repro, repro.cli, repro.scenarios; "
        "print('networkx' in sys.modules)"
    ) == "False"
    assert "networkx" in run("""
import sys
sys.modules["networkx"] = None  # unimportable, as if not installed
import repro, repro.cli, repro.scenarios
from repro.io import to_networkx
from repro.tables import EdgeTable
try:
    to_networkx(EdgeTable("e", [0], [1], num_tail_nodes=2))
except ImportError as exc:
    print(exc)
""")


class TestGraphml:
    def test_writes_valid_xml(self, graph, tmp_path):
        import xml.etree.ElementTree as ET

        path = write_graphml(graph, "knows", tmp_path / "g.graphml")
        tree = ET.parse(path)
        root = tree.getroot()
        assert root.tag.endswith("graphml")
        ns = {"g": "http://graphml.graphdrawing.org/xmlns"}
        nodes = root.findall(".//g:node", ns)
        assert len(nodes) == 120

    def test_escapes_special_characters(self, tmp_path):
        """Property values with XML metacharacters must not break the
        document."""
        from repro.core import (
            EdgeType, GeneratorSpec, GraphGenerator, NodeType,
            PropertyDef, Schema,
        )

        schema = Schema(
            node_types=[
                NodeType(
                    "T",
                    properties=[
                        PropertyDef(
                            "s",
                            "string",
                            GeneratorSpec(
                                "categorical",
                                {"values": ["a<b>&\"c'"]},
                            ),
                        )
                    ],
                )
            ],
            edge_types=[
                EdgeType(
                    "e", "T", "T",
                    structure=GeneratorSpec("erdos_renyi_m", {"m": 5}),
                )
            ],
        )
        generated = GraphGenerator(schema, {"T": 10}, seed=1).generate()
        import xml.etree.ElementTree as ET

        path = write_graphml(generated, "e", tmp_path / "esc.graphml")
        ET.parse(path)  # must not raise
