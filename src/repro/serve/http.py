"""Stdlib HTTP front end for the virtual graph.

A thin, dependency-free serving layer: a
:class:`~http.server.ThreadingHTTPServer` whose handler translates
paginated REST-ish queries into :class:`~repro.serve.virtual.
VirtualGraph` calls and renders responses with the *export*
formatters from :mod:`repro.io.chunks` — a CSV page served over HTTP
is byte-identical to the corresponding line range of a ``repro
generate`` export, which is what the serve-vs-generate equivalence
tests and the CI smoke job diff against.

Routes (all ``GET``)::

    /                                    meta + access classification
    /healthz                             liveness (always 200 once bound)
    /readyz                              readiness (503 while warming)
    /nodes/<Type>?offset&limit           JSON-lines node records
    /nodes/<Type>/<id>                   one node record (JSON)
    /properties/<Type>/<prop>?offset&limit&format=csv|jsonl
                                         one property column page
    /edges/<name>?offset&limit&format=csv|jsonl
                                         edge page (id, tail, head [+ props])
    /edges/<name>/exists?src&dst         edge-existence probe
    /neighbors/<name>/<id>?direction&offset&limit
                                         neighbourhood of one node

Pagination contract (see docs/serving.md): ``offset >= 0``, ``1 <=
limit <= max_limit`` (default page ``DEFAULT_LIMIT``); an offset at or
past the end returns an **empty 200 page**, never an error; malformed
parameters are 400 and unknown names/ids are 404; every error body,
the stdlib's own 501/414/431 refusals included, is JSON
``{"error": ..., "status": ...}``.

Robustness contract (see docs/robustness.md): every connection gets a
per-request socket timeout so a stalled client cannot pin a handler
thread; while the virtual graph warms, data routes answer **503 with
``Retry-After``** (``/healthz`` stays 200 — the process is alive, not
ready); and :func:`install_signal_handlers` arranges a graceful
SIGTERM/SIGINT drain — stop accepting, finish in-flight requests,
then run the cleanup callback (closing the graph unlinks its spool).
"""

from __future__ import annotations

import json
import re
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

import numpy as np

from ..core import tasks
from ..io.chunks import (
    format_edge_csv_chunk,
    format_json_records_chunk,
    format_property_csv_chunk,
    id_strings,
    json_encode_column,
)

__all__ = ["DEFAULT_LIMIT", "DEFAULT_REQUEST_TIMEOUT", "MAX_LIMIT",
           "GraphHTTPServer", "GraphRequestHandler", "create_server",
           "install_signal_handlers", "serve"]

#: rows per page when the client does not say.
DEFAULT_LIMIT = 1_000
#: hard per-request row ceiling — keeps any one response O(page).
MAX_LIMIT = 65_536
#: per-connection socket timeout (seconds) — a stalled client times
#: out instead of pinning a handler thread forever.
DEFAULT_REQUEST_TIMEOUT = 30.0


class _HTTPError(Exception):
    """Internal: carries a status + message to the JSON error body."""

    def __init__(self, status, message):
        super().__init__(message)
        self.status = int(status)
        self.message = str(message)


#: the only integer spelling accepted: ASCII decimal digits, optional
#: minus sign (``int()`` would also take ``1_000``, `` 12``, ``+3``
#: and non-ASCII digits)
_DECIMAL = re.compile(r"-?[0-9]+")


def _decimal(raw, what):
    if _DECIMAL.fullmatch(raw) is None:
        raise _HTTPError(400, f"{what} must be an integer, got {raw!r}")
    return int(raw)


def _int_param(params, key, default, minimum=0, maximum=None):
    raw = params.get(key, [None])[-1]
    if raw is None:
        return default
    value = _decimal(raw, repr(key))
    if value < minimum or (maximum is not None and value > maximum):
        hi = maximum if maximum is not None else "inf"
        raise _HTTPError(
            400, f"{key!r} must be in [{minimum}, {hi}], got {value}"
        )
    return value


def _str_param(params, key, default, choices):
    raw = params.get(key, [default])[-1]
    if raw not in choices:
        raise _HTTPError(
            400,
            f"{key!r} must be one of {sorted(choices)}, got {raw!r}",
        )
    return raw


class GraphRequestHandler(BaseHTTPRequestHandler):
    """Route table over one shared :class:`VirtualGraph`.

    The handler is stateless; the graph hangs off the server object
    (``server.graph``), so the threading server can answer concurrent
    requests — every query path is either pure recomputation or a
    read of a memory-mapped spool file.
    """

    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"
    # StreamRequestHandler.setup sets TCP_NODELAY: the body leaves
    # right behind the headers instead of waiting on the client's
    # 40 ms delayed ACK of them, on every kept-alive response.
    disable_nagle_algorithm = True

    # -- plumbing ----------------------------------------------------------

    def setup(self):
        # BaseHTTPRequestHandler honours a class/instance ``timeout``
        # by calling settimeout on the connection during setup; a
        # read that stalls past it closes the connection instead of
        # pinning the handler thread.
        self.timeout = getattr(
            self.server, "request_timeout", DEFAULT_REQUEST_TIMEOUT
        )
        super().setup()

    def log_message(self, format, *args):  # noqa: A002 - stdlib name
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    def _send(self, status, body, content_type, headers=()):
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        for key, value in headers:
            self.send_header(key, value)
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(payload)

    def _send_json(self, obj, status=200, headers=()):
        self._send(
            status, json.dumps(obj) + "\n", "application/json",
            headers=headers,
        )

    def _send_error_json(self, status, message, headers=()):
        self._send_json({"error": message, "status": status}, status,
                        headers)

    def send_error(self, code, message=None, explain=None):
        # The stdlib's own refusals (501 method, 414 request line, 431
        # headers) keep the JSON error contract and still hang up.
        self.log_error("code %d, message %s", code, message)
        self._send_error_json(
            int(code), message or self.responses[code][0],
            headers=(("Connection", "close"),),
        )

    # -- request entry -----------------------------------------------------

    def do_GET(self):  # noqa: N802 - stdlib casing
        split = urlsplit(self.path)
        parts = [p for p in split.path.split("/") if p]
        params = parse_qs(split.query)
        try:
            self._route(parts, params)
        except _HTTPError as exc:
            self._send_error_json(exc.status, exc.message)
        except LookupError as exc:  # KeyError and IndexError: 404
            message = exc.args[0] if exc.args else str(exc)
            self._send_error_json(404, str(message))
        except TypeError as exc:
            # A sequential-only generator behind a random-access route.
            self._send_error_json(501, str(exc))
        except ValueError as exc:
            self._send_error_json(400, str(exc))

    def _route(self, parts, params):
        graph = self.server.graph
        ready = self.server.ready.is_set()
        if parts == ["healthz"]:
            # Liveness: answers 200 the moment the socket is bound —
            # orchestrators must not kill a pod for still warming up.
            return self._send_json(
                {"status": "ok", "ready": ready}
            )
        if parts == ["readyz"]:
            if ready:
                return self._send_json({"status": "ready"})
            return self._send_json(
                {"status": "warming"}, status=503,
                headers=(("Retry-After", "1"),),
            )
        if not ready:
            # Degraded mode: data routes refuse politely while edge
            # states warm, instead of racing half-built state.
            return self._send_json(
                {"error": "virtual graph is warming up", "status": 503},
                status=503, headers=(("Retry-After", "1"),),
            )
        if not parts:
            return self._send_json({
                "service": "repro-serve",
                "seed": graph.seed,
                "chunk_rows": graph.chunk_rows,
                "default_limit": self.server.default_limit,
                "max_limit": self.server.max_limit,
                "classification": graph.classification(),
            })
        head, rest = parts[0], parts[1:]
        if head == "nodes" and len(rest) == 1:
            return self._nodes_page(rest[0], params)
        if head == "nodes" and len(rest) == 2:
            return self._node_record(rest[0], rest[1])
        if head == "properties" and len(rest) == 2:
            return self._property_page(rest[0], rest[1], params)
        if head == "edges" and len(rest) == 1:
            return self._edges_page(rest[0], params)
        if head == "edges" and len(rest) == 2 and rest[1] == "exists":
            return self._edge_exists(rest[0], params)
        if head == "neighbors" and len(rest) == 2:
            return self._neighbors(rest[0], rest[1], params)
        raise _HTTPError(404, f"no route for {self.path!r}")

    # -- pagination --------------------------------------------------------

    def _page(self, params, total):
        """-> ``(lo, hi)`` clamped to ``[0, total)``.

        Past-the-end offsets yield an empty page (``lo == hi``) — a
        200, so clients can walk ``offset += limit`` until a short
        page without special-casing the boundary.
        """
        offset = _int_param(params, "offset", 0)
        limit = _int_param(
            params, "limit", self.server.default_limit,
            minimum=1, maximum=self.server.max_limit,
        )
        lo = min(offset, total)
        return lo, min(lo + limit, total)

    # -- node routes -------------------------------------------------------

    def _node_columns(self, graph, type_name, ids):
        columns = graph.node_records(type_name, ids)
        keys = ["id"] + list(columns)
        encoded = [list(map(str, np.asarray(ids).tolist()))]
        encoded += [
            json_encode_column(values) for values in columns.values()
        ]
        return keys, encoded

    def _nodes_page(self, type_name, params):
        graph = self.server.graph
        lo, hi = self._page(params, graph.node_count(type_name))
        ids = np.arange(lo, hi, dtype=np.int64)
        keys, encoded = self._node_columns(graph, type_name, ids)
        body = format_json_records_chunk(keys, encoded)
        self._send(200, body, "application/x-ndjson")

    def _node_record(self, type_name, raw_id):
        node_id = _decimal(raw_id, "node id")
        keys, encoded = self._node_columns(
            self.server.graph, type_name, [node_id]
        )
        body = format_json_records_chunk(keys, encoded)
        self._send(200, body.rstrip("\n") + "\n", "application/json")

    def _property_page(self, type_name, prop_name, params):
        graph = self.server.graph
        lo, hi = self._page(params, graph.node_count(type_name))
        if prop_name not in graph.node_property_names(type_name):
            raise _HTTPError(
                404,
                f"node type {type_name!r} has no property "
                f"{prop_name!r}",
            )
        fmt = _str_param(params, "format", "csv", {"csv", "jsonl"})
        values = graph.node_properties_of(
            type_name, prop_name, np.arange(lo, hi, dtype=np.int64)
        )
        if fmt == "csv":
            # Byte-identical to lines [lo, hi) of the generate-export
            # CSV body for this property (header excluded).
            body = format_property_csv_chunk(lo, values)
            self._send(200, body, "text/csv")
        else:
            body = format_json_records_chunk(
                ["id", "value"],
                [id_strings(lo, hi), json_encode_column(values)],
            )
            self._send(200, body, "application/x-ndjson")

    # -- edge routes -------------------------------------------------------

    def _edges_page(self, name, params):
        graph = self.server.graph
        lo, hi = self._page(params, graph.edge_count(name))
        fmt = _str_param(params, "format", "csv", {"csv", "jsonl"})
        if fmt == "csv":
            tails, heads = graph.edges_range(name, lo, hi)
            body = format_edge_csv_chunk(lo, tails, heads)
            self._send(200, body, "text/csv")
            return
        columns = graph.edge_records(name, lo, hi)
        keys = ["id"] + list(columns)
        encoded = [id_strings(lo, hi)] + [
            json_encode_column(values) for values in columns.values()
        ]
        body = format_json_records_chunk(keys, encoded)
        self._send(200, body, "application/x-ndjson")

    def _edge_exists(self, name, params):
        graph = self.server.graph
        src = _int_param(params, "src", None)
        dst = _int_param(params, "dst", None)
        if src is None or dst is None:
            raise _HTTPError(400, "'src' and 'dst' are required")
        self._send_json({
            "edge_type": name,
            "src": src,
            "dst": dst,
            "exists": graph.edge_exists(name, src, dst),
        })

    def _neighbors(self, name, raw_id, params):
        graph = self.server.graph
        node_id = _decimal(raw_id, "node id")
        direction = _str_param(
            params, "direction", "both", {"out", "in", "both"}
        )
        neighbors = graph.neighbors_of(name, node_id, direction)
        lo, hi = self._page(params, neighbors.size)
        self._send_json({
            "edge_type": name,
            "node": node_id,
            "direction": direction,
            "count": int(neighbors.size),
            "offset": lo,
            "neighbors": [int(v) for v in neighbors[lo:hi]],
        })


class GraphHTTPServer(ThreadingHTTPServer):
    """Threading server with a readiness gate and a draining close.

    ``block_on_close``/non-daemon handler threads mean
    ``server_close()`` *waits* for in-flight requests — the graceful
    half of the drain contract; ``shutdown()`` (from a signal handler
    thread) stops the accept loop, the other half.
    """

    daemon_threads = False
    block_on_close = True


def create_server(graph, host="127.0.0.1", port=0, *,
                  default_limit=DEFAULT_LIMIT, max_limit=MAX_LIMIT,
                  verbose=False, ready=True,
                  request_timeout=DEFAULT_REQUEST_TIMEOUT):
    """Bind a :class:`GraphHTTPServer` over ``graph``.

    ``port=0`` binds an ephemeral port (tests, smoke jobs) — read it
    back from ``server.server_address``.  The caller owns both the
    server (``server_close``) and the graph (``graph.close``).

    ``ready=False`` starts in degraded mode: data routes answer 503
    (``Retry-After``) until ``server.ready.set()`` — the CLI warms the
    graph in the background and flips the gate when edge states are
    built, so ``/healthz`` responds from the first instant.
    """
    server = GraphHTTPServer((host, port), GraphRequestHandler)
    server.graph = graph
    server.default_limit = int(default_limit)
    server.max_limit = int(max_limit)
    server.verbose = bool(verbose)
    server.request_timeout = (
        None if request_timeout is None else float(request_timeout)
    )
    server.ready = threading.Event()
    if ready:
        server.ready.set()
    return server


def install_signal_handlers(server, signals=(signal.SIGTERM, signal.SIGINT)):
    """Translate SIGTERM/SIGINT into a graceful drain.

    ``shutdown()`` must not be called from the ``serve_forever``
    thread (it deadlocks), and a signal handler runs exactly there —
    so the handler hands it to a short-lived thread.  After
    ``serve_forever`` returns, the caller's ``finally`` block runs
    ``server_close()`` (waits for in-flight requests) and closes the
    graph, which unlinks any owned spool.
    """
    def _drain(signum, frame):
        threading.Thread(
            target=server.shutdown, name="repro-serve-drain", daemon=True
        ).start()

    for signum in signals:
        signal.signal(signum, _drain)


def serve(graph, name, host="127.0.0.1", port=8080, **kwargs):
    """Serve ``graph`` as ``repro serve`` does, until drained; then close it.

    Binds first and prints ``serving '<name>' on http://host:port/``
    (the line clients parse for the port) with data routes answering
    503 until ready; a background thread warms the edge states, prints
    one ``edge`` line per edge type, trims the heap and opens the
    gate.  SIGTERM/SIGINT drain (so call it from the main thread), and
    the graph is closed on the way out, which unlinks its owned spool.
    A failed warm-up stops the server and raises ``RuntimeError``.
    ``kwargs`` go to :func:`create_server`.
    """
    try:
        server = create_server(graph, host, port, ready=False, **kwargs)
        host, port = server.server_address[:2]
        print(f"serving {name!r} on http://{host}:{port}/", flush=True)
        install_signal_handlers(server)
        warm_error = []

        def _warm():
            try:
                graph.warm()
                classification = graph.classification()
                for edge, meta in classification["edges"].items():
                    print(f"  edge {edge}: mode={meta['mode']} "
                          f"({meta['count']} edges)", flush=True)
                tasks.malloc_trim()  # what the warm-up freed on this thread
                server.ready.set()
            except BaseException as exc:  # noqa: BLE001 - reported below
                warm_error.append(exc)
                threading.Thread(
                    target=server.shutdown, daemon=True
                ).start()

        threading.Thread(
            target=_warm, name="repro-serve-warm", daemon=True
        ).start()
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            # Graceful drain: stop accepting, finish in-flight
            # requests (block_on_close), then release the graph —
            # which unlinks the owned spool, Ctrl-C included.
            server.server_close()
        if warm_error:
            raise RuntimeError(
                f"serve warmup failed: {warm_error[0]}"
            ) from warm_error[0]
    finally:
        graph.close()
