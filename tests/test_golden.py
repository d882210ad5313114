"""Golden-file regression tests: exporter bytes are frozen.

``tests/golden/`` holds the canonical exports of one small graph
(written by the pre-streaming per-row exporters; see
``tests/golden/regenerate.py``).  Every format must keep producing
exactly those bytes — for any chunk size, with or without the compiled
kernels — so formatting changes can never slip in silently.  An
*intended* format change must rerun the regenerate script and commit
the fixture diff.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.io import export_graph, make_sink

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

sys.path.insert(0, str(GOLDEN_DIR))
from regenerate import build_graph  # noqa: E402


@pytest.fixture(scope="module", params=["compiled", "numpy"])
def graph(request):
    """The golden graph, generated and exported by the compiled kernels
    (where they load) and by their numpy / Python twins: the one
    in-process switch, held for every test of one parameter."""
    with pytest.MonkeyPatch.context() as patch:
        if request.param == "numpy":
            patch.setenv("REPRO_NO_CKERNEL", "1")
        yield build_graph()


def golden_files(subdir):
    files = sorted(
        p for p in (GOLDEN_DIR / subdir).iterdir() if p.is_file()
    )
    assert files, f"no golden fixtures under {subdir}"
    return files


@pytest.mark.parametrize("chunk_size", [7, 10**9])
class TestGoldenBytes:
    def test_csv(self, graph, tmp_path, chunk_size):
        export_graph(graph, make_sink("csv", tmp_path, chunk_size))
        for fixture in golden_files("csv"):
            produced = tmp_path / fixture.name
            assert produced.read_bytes() == fixture.read_bytes(), \
                fixture.name

    def test_jsonl(self, graph, tmp_path, chunk_size):
        export_graph(graph, make_sink("jsonl", tmp_path, chunk_size))
        for fixture in golden_files("jsonl"):
            produced = tmp_path / fixture.name
            assert produced.read_bytes() == fixture.read_bytes(), \
                fixture.name

    def test_edgelist(self, graph, tmp_path, chunk_size):
        from repro.io import write_edgelist

        for name, table in graph.edge_tables.items():
            write_edgelist(
                table, tmp_path / f"{name}.edges",
                chunk_size=chunk_size,
            )
        for fixture in golden_files("edgelist"):
            produced = tmp_path / fixture.name
            assert produced.read_bytes() == fixture.read_bytes(), \
                fixture.name

    def test_graphml(self, graph, tmp_path, chunk_size):
        from repro.io import write_graphml

        write_graphml(
            graph, "knows", tmp_path / "knows.graphml",
            chunk_size=chunk_size,
        )
        fixture = GOLDEN_DIR / "graphml" / "knows.graphml"
        assert (tmp_path / "knows.graphml").read_bytes() == \
            fixture.read_bytes()


def test_fixture_set_is_complete():
    """Every format directory carries fixtures (guards against an
    accidentally-pruned checkout silently skipping coverage)."""
    for subdir, minimum in (
        ("csv", 10), ("jsonl", 4), ("edgelist", 2), ("graphml", 1)
    ):
        assert len(golden_files(subdir)) >= minimum, subdir
