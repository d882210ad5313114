"""Serving-mode tests: VirtualGraph + HTTP front end.

Three pillars (docs/serving.md):

* **serve-vs-generate equivalence** — every node property column,
  edge endpoint and edge property page served by a
  :class:`~repro.serve.VirtualGraph` equals the materialised output
  of the serial engine, on zoo recipes covering all three edge modes
  (virtual, spooled-sequential, spooled-correlated) plus two planted
  benchmark recipes (appended edge block, forced attributes, edge
  properties over the appended ids);
* **byte-identity** — a served CSV page is the exact line range of a
  ``generate`` export file;
* **planted worlds** — ``neighbors_of`` / ``edge_exists`` see every
  injected template edge and the classification reports the block;
* **HTTP contract** — pagination boundaries, JSON error bodies, and
  byte-identical responses under concurrent load.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.request
from urllib.parse import urlsplit

import numpy as np
import pytest

from repro.core.schema import (
    GeneratorSpec,
    NodeType,
    PropertyDef,
    Schema,
)
from repro.io.csv_io import write_property_table
from repro.properties.base import PropertyGenerator
from repro.properties.registry import register_property_generator
from repro.scenarios import compile_scenario
from repro.scenarios.zoo import load_zoo
from repro.serve import VirtualGraph, create_server

SCALES = {
    "social_network": {"Person": 250},
    "web_graph_rmat": {"Page": 256},
    "c2_pattern_infra_telemetry": {"Host": 300},
    # planted *and* carrying an edge property over the appended block
    "fraud_ring_social": {"Person": 300},
}


def _reference_graph(compiled):
    """What a real ``run_scenario`` produces: generate, then overlay
    the plant plan (planted recipes), materialised to plain tables."""
    graph = compiled.generator().generate()
    plants = list(getattr(compiled, "plants", []) or [])
    if not plants:
        return graph
    from repro.planting import plan_plants, planted_graph

    plan = plan_plants(
        plants, graph.node_counts,
        {name: len(t) for name, t in graph.edge_tables.items()},
        compiled.seed,
    )
    return planted_graph(graph, plan).materialize()


@pytest.fixture(scope="module", params=sorted(SCALES))
def scenario_pair(request):
    """(compiled, generated graph, virtual graph) per zoo recipe."""
    compiled = compile_scenario(
        load_zoo(request.param), scale=SCALES[request.param]
    )
    graph = _reference_graph(compiled)
    virtual = VirtualGraph.from_scenario(compiled, chunk_rows=512)
    yield request.param, compiled, graph, virtual
    virtual.close()


class TestServeMatchesGenerate:
    def test_node_counts_and_properties(self, scenario_pair):
        name, compiled, graph, virtual = scenario_pair
        for type_name, count in graph.node_counts.items():
            assert virtual.node_count(type_name) == count
            ids = np.arange(count, dtype=np.int64)
            for prop in virtual.node_property_names(type_name):
                full = graph.node_property(type_name, prop).values
                served = virtual.node_properties_of(
                    type_name, prop, ids
                )
                assert served.dtype == full.dtype
                assert (served == full).all(), (name, type_name, prop)

    def test_scattered_node_subsets(self, scenario_pair):
        name, compiled, graph, virtual = scenario_pair
        for type_name, count in graph.node_counts.items():
            pos = np.array(
                [0, count - 1, count // 2, 3 % count, count // 2],
                dtype=np.int64,
            )
            for prop in virtual.node_property_names(type_name):
                full = graph.node_property(type_name, prop).values
                served = virtual.node_properties_of(
                    type_name, prop, pos
                )
                assert (served == full[pos]).all()

    def test_edges_and_edge_properties(self, scenario_pair):
        name, compiled, graph, virtual = scenario_pair
        for edge_name, table in graph.edge_tables.items():
            assert virtual.edge_count(edge_name) == len(table)
            tails, heads = virtual.edges_range(
                edge_name, 0, len(table)
            )
            assert (tails == table.tails).all(), (name, edge_name)
            assert (heads == table.heads).all(), (name, edge_name)
            # An unaligned mid-table page (crosses chunk boundaries).
            lo, hi = len(table) // 3 + 1, len(table) // 3 + 77
            hi = min(hi, len(table))
            t2, h2 = virtual.edges_range(edge_name, lo, hi)
            assert (t2 == table.tails[lo:hi]).all()
            assert (h2 == table.heads[lo:hi]).all()
            for prop in virtual.edge_property_names(edge_name):
                full = graph.edge_property(edge_name, prop).values
                served = virtual.edge_properties_range(
                    edge_name, prop, lo, hi
                )
                assert (served == full[lo:hi]).all(), (edge_name, prop)

    def test_neighbors_and_existence(self, scenario_pair):
        name, compiled, graph, virtual = scenario_pair
        for edge_name, table in graph.edge_tables.items():
            tails = np.asarray(table.tails)
            heads = np.asarray(table.heads)
            probe = int(tails[len(table) // 2])
            for direction in ("out", "in", "both"):
                got = np.sort(virtual.neighbors_of(
                    edge_name, probe, direction
                ))
                parts = []
                if direction in ("out", "both"):
                    parts.append(heads[tails == probe])
                if direction in ("in", "both"):
                    mask = heads == probe
                    if direction == "both":
                        mask &= tails != heads
                    parts.append(tails[mask])
                expected = np.sort(np.concatenate(parts))
                assert (got == expected).all(), (edge_name, direction)
            k = len(table) // 2
            assert virtual.edge_exists(
                edge_name, int(tails[k]), int(heads[k])
            )

    def test_empty_pages_keep_the_column_dtype(self, scenario_pair):
        """Every empty range is typed like the column — the
        past-the-end page of the generated block (``m``) included,
        planted or not."""
        name, compiled, graph, virtual = scenario_pair
        for edge_name in graph.edge_tables:
            m = virtual.base_edge_count(edge_name)
            for prop in virtual.edge_property_names(edge_name):
                dtype = graph.edge_property(edge_name, prop).values.dtype
                for at in (0, m, virtual.edge_count(edge_name)):
                    column = virtual.edge_properties_range(
                        edge_name, prop, at, at
                    )
                    record = virtual.edge_records(edge_name, at, at)
                    for page in (column, record[prop]):
                        assert page.shape == (0,)
                        assert page.dtype == dtype, (edge_name, prop, at)
                    assert record["tail"].dtype == np.int64

    def test_neighbors_of_checks_the_endpoint_id_space(
        self, scenario_pair
    ):
        """A node id outside the endpoint type's range is refused
        before the scan; an isolated node inside it is just empty."""
        name, compiled, graph, virtual = scenario_pair
        for edge_name, table in graph.edge_tables.items():
            edge = compiled.schema.edge_type(edge_name)
            tail_n = virtual.node_count(edge.tail_type)
            head_n = virtual.node_count(edge.head_type)
            spaces = {
                "out": tail_n, "in": head_n, "both": max(tail_n, head_n),
            }
            for direction, space in spaces.items():
                for bad in (-5, space, 10**12):
                    with pytest.raises(
                        IndexError,
                        match=rf"node id {bad} out of range "
                              rf"\[0, {space}\)",
                    ):
                        virtual.neighbors_of(edge_name, bad, direction)
            childless = np.setdiff1d(np.arange(tail_n), table.tails)
            if childless.size:
                got = virtual.neighbors_of(
                    edge_name, int(childless[0]), "out"
                )
                assert got.size == 0 and got.dtype == np.int64

    def test_range_validation(self, scenario_pair):
        name, compiled, graph, virtual = scenario_pair
        edge_name = next(iter(graph.edge_tables))
        count = virtual.edge_count(edge_name)
        with pytest.raises(IndexError):
            virtual.edges_range(edge_name, 0, count + 1)
        with pytest.raises(IndexError):
            virtual.edges_range(edge_name, -1, 0)
        with pytest.raises(KeyError):
            virtual.edge_count("nope")
        with pytest.raises(KeyError):
            virtual.node_count("Nope")
        type_name = next(iter(graph.node_counts))
        with pytest.raises(IndexError):
            virtual.node_properties_of(
                type_name,
                virtual.node_property_names(type_name)[0],
                np.array([graph.node_counts[type_name]]),
            )


class TestPlantedServe:
    """Planted recipes through the serving layer (docs/planting.md)."""

    @pytest.fixture()
    def planted(self, scenario_pair):
        name, compiled, graph, virtual = scenario_pair
        if virtual.plan is None:
            pytest.skip("recipe declares no plants")
        return compiled, graph, virtual

    def test_appended_block_matches_plan(self, planted):
        compiled, graph, virtual = planted
        plan = virtual.plan
        for edge_name, (tails, heads) in plan.appended.items():
            m = virtual.base_edge_count(edge_name)
            total = virtual.edge_count(edge_name)
            assert total == m + tails.size
            got_t, got_h = virtual.edges_range(edge_name, m, total)
            assert (got_t == tails).all()
            assert (got_h == heads).all()

    def test_injected_edges_visible(self, planted):
        compiled, graph, virtual = planted
        plan = virtual.plan
        edge_of = {p.name: p.edge for p in plan.plants}
        for inst in plan.instances:
            edge_name = edge_of[inst.plant]
            for record in inst.edges:
                if record["status"] != "planted":
                    continue
                u, v = record["world"]
                assert virtual.edge_exists(edge_name, u, v)
                assert v in virtual.neighbors_of(edge_name, u)

    def test_forced_attributes_served(self, planted):
        compiled, graph, virtual = planted
        plan = virtual.plan
        for plant in plan.plants:
            for inst in plan.instances_of(plant.name):
                ids = np.asarray(inst.node_map, dtype=np.int64)
                for prop, value in plant.attributes.items():
                    served = virtual.node_properties_of(
                        plant.node_type, prop, ids
                    )
                    assert (served == value).all(), (plant.name, prop)

    def test_classification_reports_planted_block(self, planted):
        compiled, graph, virtual = planted
        plan = virtual.plan
        report = virtual.classification()
        for edge_name, (tails, _) in plan.appended.items():
            entry = report["edges"][edge_name]
            assert entry["planted"] == {
                "start": int(plan.edge_counts[edge_name]),
                "count": int(tails.size),
            }
            assert entry["count"] == (
                plan.edge_counts[edge_name] + tails.size
            )

    def test_plan_identical_to_run_scenario_path(self, planted):
        compiled, graph, virtual = planted
        from repro.planting import plan_plants

        base_counts = {
            name: virtual.base_edge_count(name)
            for name in compiled.schema.edge_types
        }
        again = plan_plants(
            compiled.plants, virtual.node_counts, base_counts,
            compiled.seed,
        )
        assert again.to_dict() == virtual.plan.to_dict()


class TestCsvByteIdentity:
    """A served CSV page is a line range of the export file."""

    def test_property_pages_reassemble_export_file(self, scenario_pair,
                                                   tmp_path):
        name, compiled, graph, virtual = scenario_pair
        type_name = next(iter(graph.node_counts))
        prop = virtual.node_property_names(type_name)[0]
        path = tmp_path / f"{type_name}.{prop}.csv"
        write_property_table(
            graph.node_property(type_name, prop), path
        )
        exported = path.read_bytes().decode()
        count = graph.node_counts[type_name]
        pages = []
        step = 61  # deliberately unaligned with chunk_rows
        from repro.io.chunks import format_property_csv_chunk

        for lo in range(0, count, step):
            hi = min(lo + step, count)
            values = virtual.node_properties_of(
                type_name, prop, np.arange(lo, hi, dtype=np.int64)
            )
            pages.append(format_property_csv_chunk(lo, values))
        assert "id,value\r\n" + "".join(pages) == exported


# -- HTTP layer --------------------------------------------------------------


@pytest.fixture(scope="module")
def http_server():
    compiled = compile_scenario(
        load_zoo("social_network"), scale={"Person": 200}
    )
    graph = compiled.generator().generate()
    virtual = VirtualGraph.from_scenario(compiled, chunk_rows=512)
    virtual.warm()
    server = create_server(virtual, port=0)
    thread = threading.Thread(
        target=server.serve_forever, daemon=True
    )
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}", graph, virtual
    server.shutdown()
    server.server_close()
    virtual.close()


def _get(base, path):
    try:
        with urllib.request.urlopen(base + path) as response:
            return (
                response.status,
                response.read().decode(),
                response.headers.get("Content-Type"),
            )
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode(), exc.headers.get(
            "Content-Type"
        )


def _raw(base, request):
    """Send raw request bytes and read until the server hangs up:
    ``(status, headers, body)``."""
    split = urlsplit(base)
    with socket.create_connection(
        (split.hostname, split.port), timeout=10
    ) as conn:
        conn.sendall(request)
        chunks = []
        while chunk := conn.recv(65536):
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in lines[1:])
    return int(lines[0].split()[1]), headers, body


class TestHttpContract:
    def test_meta_route_reports_classification(self, http_server):
        base, graph, virtual = http_server
        status, body, ctype = _get(base, "/")
        assert status == 200 and ctype == "application/json"
        meta = json.loads(body)
        assert meta["classification"]["nodes"]["Person"]["count"] == 200
        modes = {
            name: entry["mode"]
            for name, entry in meta["classification"]["edges"].items()
        }
        assert modes["creates"] == "virtual"  # strict one_to_many
        assert modes["knows"] == "spooled"    # correlated matching

    def test_nodes_pagination_walk(self, http_server):
        base, graph, virtual = http_server
        rows = []
        offset = 0
        while True:
            status, body, _ = _get(
                base, f"/nodes/Person?offset={offset}&limit=64"
            )
            assert status == 200
            page = body.splitlines()
            rows.extend(page)
            if len(page) < 64:
                break
            offset += 64
        assert len(rows) == 200
        record = json.loads(rows[123])
        assert record["id"] == 123
        served = virtual.node_records(
            "Person", np.array([123], dtype=np.int64)
        )
        for key, column in served.items():
            assert record[key] == (
                column[0].item()
                if hasattr(column[0], "item") else column[0]
            )

    def test_pagination_boundaries(self, http_server):
        base, graph, virtual = http_server
        # Last partial page.
        status, body, _ = _get(base, "/nodes/Person?offset=192&limit=64")
        assert status == 200 and len(body.splitlines()) == 8
        # Offset exactly at the end, and far past it: empty 200 pages.
        for offset in (200, 100_000):
            status, body, _ = _get(
                base, f"/nodes/Person?offset={offset}"
            )
            assert (status, body) == (200, "")
        # Malformed parameters: 400 with a JSON error body.
        for query in ("offset=-1", "limit=0", "offset=x",
                      f"limit={10**9}"):
            status, body, ctype = _get(base, f"/nodes/Person?{query}")
            assert status == 400, query
            assert ctype == "application/json"
            payload = json.loads(body)
            assert payload["status"] == 400 and payload["error"]

    def test_unknown_names_are_404_json(self, http_server):
        base, graph, virtual = http_server
        for path in ("/nodes/Nope", "/properties/Person/nope",
                     "/edges/nope", "/neighbors/nope/0",
                     "/bogus/route"):
            status, body, ctype = _get(base, path)
            assert status == 404, path
            assert json.loads(body)["status"] == 404

    @pytest.mark.parametrize("method", ["POST", "PUT"])
    def test_unsupported_method_is_501_json(self, http_server, method):
        base, graph, virtual = http_server
        status, headers, body = _raw(
            base, f"{method} /healthz HTTP/1.1\r\nHost: x\r\n"
                  f"Content-Length: 0\r\n\r\n".encode(),
        )
        assert status == 501
        assert headers["Connection"] == "close"
        assert headers["Content-Type"] == "application/json"
        assert json.loads(body) == {
            "error": f"Unsupported method ({method!r})", "status": 501,
        }

    def test_head_gets_no_body(self, http_server):
        base, graph, virtual = http_server
        status, headers, body = _raw(
            base, b"HEAD /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        assert status == 501 and headers["Connection"] == "close"
        assert body == b""

    @pytest.mark.parametrize("request_bytes, status, error", [
        # One byte past the stdlib's 65 536-byte request-line limit.
        (b"GET /" + b"a" * (65_537 - 5), 414, "Request-URI Too Long"),
        # One header past the stdlib's limit of 100.
        (b"GET /healthz HTTP/1.1\r\n" + b"X-A: b\r\n" * 101, 431,
         "Too many headers"),
    ], ids=["414", "431"])
    def test_oversized_request_is_refused_in_json(
        self, http_server, request_bytes, status, error
    ):
        """Nothing follows the refused part, so the server has read
        all that was sent when it hangs up."""
        base, graph, virtual = http_server
        got, headers, body = _raw(base, request_bytes)
        assert got == status
        assert headers["Connection"] == "close"
        assert headers["Content-Type"] == "application/json"
        assert json.loads(body) == {"error": error, "status": status}

    def test_node_id_routes(self, http_server):
        base, graph, virtual = http_server
        status, body, ctype = _get(base, "/nodes/Person/7")
        assert status == 200 and ctype == "application/json"
        assert json.loads(body)["id"] == 7
        for bad in (200, -1, 10**30):  # the last one is past int64
            status, body, _ = _get(base, f"/nodes/Person/{bad}")
            assert status == 404
            assert json.loads(body)["error"] == (
                "node ids out of range [0, 200) for 'Person'"
            )
        status, _, _ = _get(base, "/nodes/Person/seven")
        assert status == 400

    def test_property_csv_page_matches_export_lines(self, http_server):
        base, graph, virtual = http_server
        from repro.io.chunks import format_property_csv_chunk

        full = graph.node_property("Person", "country").values
        status, body, ctype = _get(
            base, "/properties/Person/country?offset=37&limit=19"
        )
        assert status == 200 and ctype == "text/csv"
        assert body == format_property_csv_chunk(37, full[37:56])

    def test_edge_csv_page_matches_generate(self, http_server):
        base, graph, virtual = http_server
        from repro.io.chunks import format_edge_csv_chunk

        table = graph.edge_tables["knows"]
        status, body, ctype = _get(
            base, "/edges/knows?offset=11&limit=23"
        )
        assert status == 200 and ctype == "text/csv"
        assert body == format_edge_csv_chunk(
            11, table.tails[11:34], table.heads[11:34]
        )

    def test_edge_jsonl_includes_properties(self, http_server):
        base, graph, virtual = http_server
        status, body, _ = _get(
            base, "/edges/creates?offset=0&limit=2&format=jsonl"
        )
        assert status == 200
        table = graph.edge_tables["creates"]
        first = json.loads(body.splitlines()[0])
        assert first["id"] == 0
        assert first["tail"] == int(table.tails[0])
        assert first["head"] == int(table.heads[0])

    def test_exists_endpoint(self, http_server):
        base, graph, virtual = http_server
        table = graph.edge_tables["knows"]
        src, dst = int(table.tails[3]), int(table.heads[3])
        status, body, _ = _get(
            base, f"/edges/knows/exists?src={src}&dst={dst}"
        )
        assert status == 200 and json.loads(body)["exists"] is True
        status, body, _ = _get(base, "/edges/knows/exists?src=0")
        assert status == 400

    def test_neighbors_endpoint_paginates(self, http_server):
        base, graph, virtual = http_server
        table = graph.edge_tables["knows"]
        probe = int(np.asarray(table.tails)[0])
        status, body, _ = _get(base, f"/neighbors/knows/{probe}")
        assert status == 200
        payload = json.loads(body)
        expected = virtual.neighbors_of("knows", probe, "both")
        assert payload["count"] == expected.size
        assert payload["neighbors"] == [int(v) for v in expected]
        # A limit smaller than the neighbourhood pages it.
        status, body, _ = _get(
            base, f"/neighbors/knows/{probe}?limit=2&offset=1"
        )
        paged = json.loads(body)
        assert paged["neighbors"] == [int(v) for v in expected[1:3]]
        status, _, _ = _get(
            base, f"/neighbors/knows/{probe}?direction=sideways"
        )
        assert status == 400

    def test_neighbors_of_unknown_node_is_404(self, http_server):
        """Like ``/nodes/<Type>/<id>``: an id outside the endpoint
        type is a 404 naming the range, an isolated one a 200."""
        base, graph, virtual = http_server
        for bad in (-5, 200, 10**12):
            status, body, ctype = _get(base, f"/neighbors/knows/{bad}")
            assert status == 404 and ctype == "application/json"
            assert f"node id {bad} out of range [0, 200)" in (
                json.loads(body)["error"]
            )
        childless = np.setdiff1d(
            np.arange(200), graph.edge_tables["creates"].tails
        )
        status, body, _ = _get(
            base, f"/neighbors/creates/{int(childless[0])}?direction=out"
        )
        assert status == 200
        assert json.loads(body)["count"] == 0

    def test_concurrent_requests_are_byte_identical(self, http_server):
        base, graph, virtual = http_server
        paths = [
            "/nodes/Person?offset=0&limit=100",
            "/properties/Person/country?limit=150",
            "/edges/knows?offset=0&limit=200",
            f"/neighbors/knows/{int(graph.edge_tables['knows'].tails[0])}",
        ]
        results = {path: [] for path in paths}
        errors = []

        def fetch(path):
            try:
                results[path].append(_get(base, path))
            except Exception as exc:  # pragma: no cover - fail loudly
                errors.append(exc)

        threads = [
            threading.Thread(target=fetch, args=(path,))
            for path in paths for _ in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        for path, got in results.items():
            assert len(got) == 6
            assert len(set(got)) == 1, path
            assert got[0][0] == 200


class TestKeepAlive:
    """One persistent connection: no response waits on the client's
    delayed ACK, and back-to-back responses keep their framing."""

    def test_round_trips_on_one_connection_do_not_stall(self, http_server):
        base, graph, virtual = http_server
        probe = int(graph.edge_tables["knows"].tails[0])
        paths = [
            "/healthz",
            "/properties/Person/country?offset=64&limit=64",
            "/edges/knows?limit=65536",
            f"/neighbors/knows/{probe}",
            "/nodes/Nope",
        ]
        expected = {path: _get(base, path)[:2] for path in paths}
        split = urlsplit(base)
        conn = http.client.HTTPConnection(
            split.hostname, split.port, timeout=10
        )
        got, local_ports = [], set()
        try:
            start = time.perf_counter()
            for k in range(50):
                path = paths[k % len(paths)]
                conn.request("GET", path)
                response = conn.getresponse()
                got.append((path, response.status, response.read().decode()))
                local_ports.add(conn.sock.getsockname()[1])
            elapsed = time.perf_counter() - start
        finally:
            conn.close()
        # A delayed-ACK stall costs 40 ms a response: 2 s for 50.
        assert elapsed < 1.0, f"50 kept-alive requests took {elapsed:.2f} s"
        assert len(local_ports) == 1  # never reconnected
        for path, status, body in got:
            assert (status, body) == expected[path], path


class TestServeRobustness:
    """Health endpoints, warmup degradation, graceful drain, timeouts
    (the serving half of docs/robustness.md)."""

    def _spin(self, server):
        thread = threading.Thread(
            target=server.serve_forever, daemon=True
        )
        thread.start()
        host, port = server.server_address[:2]
        return f"http://{host}:{port}"

    def test_healthz_and_readyz_track_warmup(self, http_server):
        _, _, virtual = http_server
        server = create_server(virtual, port=0, ready=False)
        base = self._spin(server)
        try:
            status, body, _ = _get(base, "/healthz")
            assert status == 200
            assert json.loads(body) == {"status": "ok", "ready": False}
            status, body, _ = _get(base, "/readyz")
            assert status == 503
            assert json.loads(body)["status"] == "warming"
            # Data routes degrade with 503 + Retry-After, not errors.
            try:
                urllib.request.urlopen(base + "/nodes/Person?limit=1")
                raise AssertionError("expected 503 while warming")
            except urllib.error.HTTPError as exc:
                assert exc.code == 503
                assert exc.headers.get("Retry-After") == "1"
                assert "warming" in json.loads(exc.read().decode())["error"]
            server.ready.set()
            status, body, _ = _get(base, "/healthz")
            assert json.loads(body) == {"status": "ok", "ready": True}
            status, body, _ = _get(base, "/readyz")
            assert status == 200
            status, _, _ = _get(base, "/nodes/Person?limit=1")
            assert status == 200
        finally:
            server.shutdown()
            server.server_close()

    def test_request_timeout_is_plumbed_and_enforced(self, http_server):
        import socket

        _, _, virtual = http_server
        server = create_server(virtual, port=0, request_timeout=0.5)
        assert server.request_timeout == 0.5
        base = self._spin(server)
        host, port = base.rsplit("//", 1)[1].split(":")
        try:
            # A client that connects and never finishes its request
            # line must be hung up on, not hold a handler thread.
            conn = socket.create_connection((host, int(port)), timeout=10)
            conn.settimeout(10)
            conn.sendall(b"GET /healthz HTTP/1.1\r\n")  # no final CRLF
            got = conn.recv(4096)
            assert got == b""  # server closed the half-open request
            conn.close()
        finally:
            server.shutdown()
            server.server_close()

    def test_graceful_drain_completes_inflight_requests(
        self, http_server
    ):
        """shutdown + server_close must finish in-flight requests
        (block_on_close) rather than dropping them mid-response."""
        _, _, virtual = http_server
        entered, release = threading.Event(), threading.Event()

        class SlowGraph:
            def __getattr__(self, name):
                return getattr(virtual, name)

            def node_records(self, *args, **kwargs):
                entered.set()
                release.wait(10)
                return virtual.node_records(*args, **kwargs)

        server = create_server(SlowGraph(), port=0)
        base = self._spin(server)
        responses = []
        request = threading.Thread(
            target=lambda: responses.append(
                _get(base, "/nodes/Person?limit=1")
            ),
        )
        request.start()
        assert entered.wait(10)
        server.shutdown()  # stop accepting; in-flight keeps running
        closer = threading.Thread(target=server.server_close)
        closer.start()
        closer.join(0.3)
        assert closer.is_alive()  # drain is blocked on our request
        release.set()
        closer.join(10)
        assert not closer.is_alive()
        request.join(10)
        status, body, _ = responses[0]
        assert status == 200
        assert json.loads(body.splitlines()[0])["id"] == 0

    def test_drain_waits_for_idle_keepalive_connection(self, http_server):
        """An idle persistent connection pins its handler thread, and
        server_close() waits for it, until the request timeout."""
        _, _, virtual = http_server
        server = create_server(virtual, port=0, request_timeout=1.0)
        split = urlsplit(self._spin(server))
        conn = http.client.HTTPConnection(
            split.hostname, split.port, timeout=10
        )
        try:
            conn.request("GET", "/healthz")
            assert conn.getresponse().read()
            server.shutdown()
            closer = threading.Thread(target=server.server_close)
            closer.start()
            closer.join(0.3)
            assert closer.is_alive()  # held by the idle connection
            closer.join(10)  # released once the 1 s timeout fires
            assert not closer.is_alive()
        finally:
            conn.close()

    def test_cli_sigint_exits_clean_without_leaking_spool(
        self, tmp_path
    ):
        """Regression: Ctrl-C on ``repro serve`` must drain, exit 0,
        and remove the owned spool/mmap tempdir."""
        import os
        import signal
        import subprocess
        import sys
        import time
        from pathlib import Path

        import repro

        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env["TMPDIR"] = str(tmp_path)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "social_network", "--scale", "Person=60", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env,
        )
        try:
            line = proc.stdout.readline()
            assert "serving" in line and "http://" in line, line
            base = line.split("on ", 1)[1].strip().rstrip("/")
            deadline = time.monotonic() + 60
            while True:  # poll /readyz until warm
                try:
                    urllib.request.urlopen(base + "/readyz", timeout=5)
                    break
                except urllib.error.HTTPError as exc:
                    if exc.code != 503 or time.monotonic() > deadline:
                        raise
                    time.sleep(0.05)
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup
                proc.kill()
                proc.wait()
        leaked = [
            p.name for p in tmp_path.iterdir()
            if p.name.startswith(("repro-serve-", "repro-spool-"))
        ]
        assert leaked == []

    def test_cli_warm_thread_trims_the_heap_once_warm(
        self, monkeypatch, capsys
    ):
        """The warm-up thread's glibc arena would keep what the warm-up
        freed: ``repro serve`` trims it once warm is done, on that
        thread, before the data routes open."""
        import threading

        import repro.serve
        from repro import cli
        from repro.core import tasks

        servers, calls = [], []
        create_server = repro.serve.create_server

        def capture(*args, **kwargs):
            servers.append(create_server(*args, **kwargs))
            return servers[-1]

        def trim():
            server = servers[0]
            calls.append((threading.current_thread().name,
                          server.ready.is_set(),
                          "mode=" in capsys.readouterr().out))
            threading.Thread(target=server.shutdown).start()

        monkeypatch.setattr(repro.serve, "create_server", capture)
        monkeypatch.setattr(repro.serve, "install_signal_handlers",
                            lambda server: None)
        monkeypatch.setattr(tasks, "malloc_trim", trim)
        assert cli.main(["serve", "social_network", "--scale",
                         "Person=60", "--port", "0"]) == 0
        assert calls == [("repro-serve-warm", False, True)]


class TestUnwarmedConcurrency:
    def test_first_touch_from_many_threads(self):
        """Queries on an un-warmed graph are safe from any number of
        threads: each edge type's matching state is built once, and
        the per-thread page memos never leak a column into another
        thread's page."""
        import sys

        compiled = compile_scenario(
            load_zoo("social_network"), scale={"Person": 200}
        )
        warmed = VirtualGraph.from_scenario(compiled, chunk_rows=64)
        virtual = VirtualGraph.from_scenario(compiled, chunk_rows=64)

        def page(graph, k):
            ids = np.arange(k, k + 40, dtype=np.int64)
            return (
                graph.node_records("Person", ids),
                graph.edge_records("knows", 3 * k, 3 * k + 50),
                graph.edge_records("creates", k, k + 50),
                graph.neighbors_of("knows", k),
            )

        def same(got, expected):
            return all(
                (g[key] == e[key]).all()
                for g, e in zip(got[:3], expected[:3]) for key in e
            ) and (got[3] == expected[3]).all()

        results, built = {}, []

        def work(k):
            results[k] = [page(virtual, k + i) for i in range(5)]
            built.append({
                name: id(table.resolve())
                for name, table in virtual._base.edge_tables.items()
            })

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            warmed.warm()
            threads = [
                threading.Thread(target=work, args=(k,))
                for k in range(0, 80, 10)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            assert not any(thread.is_alive() for thread in threads)
            assert len(built) == 8 and all(b == built[0] for b in built)
            for k, pages in results.items():
                for i, got in enumerate(pages):
                    assert same(got, page(warmed, k + i)), (k, i)
        finally:
            sys.setswitchinterval(interval)
            warmed.close()
            virtual.close()


class TestSequentialGenerators501:
    def test_sequential_property_maps_to_501(self, tmp_path,
                                             registries):
        class SequentialPG(PropertyGenerator):
            name = "serve_test_sequential"
            access = "sequential"

            def parameter_names(self):
                return set()

            def run_many(self, ids, stream, *deps):
                return np.zeros(len(ids), dtype=np.int64)

        register_property_generator(SequentialPG)
        schema = Schema(node_types=[NodeType("T", properties=[
            PropertyDef(
                "x", "long", GeneratorSpec("serve_test_sequential", {})
            ),
        ])])
        virtual = VirtualGraph(schema, {"T": 8}, seed=1,
                               spool_dir=tmp_path / "spool")
        server = create_server(virtual, port=0)
        thread = threading.Thread(
            target=server.serve_forever, daemon=True
        )
        thread.start()
        host, port = server.server_address[:2]
        try:
            status, body, _ = _get(
                f"http://{host}:{port}", "/properties/T/x"
            )
            assert status == 501
            assert "sequential" in json.loads(body)["error"]
        finally:
            server.shutdown()
            server.server_close()
            virtual.close()
