"""Regenerate the golden export fixtures.

Run from the repository root::

    PYTHONPATH=src python tests/golden/regenerate.py

The fixtures pin the exact bytes every exporter produces for one small
canonical graph (the running-example social network at Person=48,
seed=11).  ``tests/test_golden.py`` regenerates the same graph and
asserts byte-equality, so any formatting change — quoting, line
endings, float repr, chunk boundaries leaking into output — fails
loudly instead of slipping into downstream consumers.

Only rerun this script when an output-format change is *intended*; the
diff of the fixtures then documents exactly what changed.
"""

from __future__ import annotations

from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent

# One canonical graph, small enough to commit but exercising every
# column kind the exporters handle: int, float, bool-free categorical
# strings, datetimes-as-longs, and a correlated edge type.
SCHEMA_KWARGS = {"num_countries": 6}
SCALE = {"Person": 48}
SEED = 11


def build_graph():
    from repro.core import GraphGenerator
    from repro.datasets import social_network_schema

    schema = social_network_schema(**SCHEMA_KWARGS)
    return GraphGenerator(schema, SCALE, seed=SEED).generate()


def regenerate():
    from repro.io import (
        export_graph,
        make_sink,
        write_edgelist,
        write_graphml,
    )

    graph = build_graph()
    written = []
    for fmt in ("csv", "jsonl"):
        written += export_graph(graph, make_sink(fmt, GOLDEN_DIR / fmt))
    edgelist_dir = GOLDEN_DIR / "edgelist"
    edgelist_dir.mkdir(parents=True, exist_ok=True)
    for name, table in graph.edge_tables.items():
        written.append(
            write_edgelist(table, edgelist_dir / f"{name}.edges")
        )
    graphml_dir = GOLDEN_DIR / "graphml"
    graphml_dir.mkdir(parents=True, exist_ok=True)
    written.append(
        write_graphml(graph, "knows", graphml_dir / "knows.graphml")
    )
    return written


if __name__ == "__main__":
    for path in regenerate():
        print(f"wrote {path}")
