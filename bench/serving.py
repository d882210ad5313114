"""The two serving workloads: ``repro serve`` as a real subprocess and
one closed-loop client.

Callers of a graph server page through it and wait for each page, so
the load is a closed loop; one client plus one server process is
``nproc`` on the sandbox this was sized on.  The two workloads send the
same seeded request mix and differ in how they use the HTTP layer:
``serve_keepalive`` reuses one connection, ``serve_fresh`` opens one
per request.
"""

from __future__ import annotations

import http.client
import os
import random
import signal
import subprocess
import sys
import time

from . import oracle
from .trace import Tracer, coverage, traced_wall
from .workloads import median, sample, timed

#: Rows per page on the three paged routes.
PAGE = 64
ROUTES = ("nodes", "property", "edges", "neighbors")
BOOT_TIMEOUT_S = 120


def request_stream(seed, persons, creates):
    """Endless seeded requests, the four routes in equal shares with
    uniform-random offsets: ``(route, path, lo)``."""
    rng = random.Random(seed)
    while True:
        for route in ROUTES:
            if route == "neighbors":
                lo = rng.randrange(persons)
                yield route, f"/neighbors/knows/{lo}", lo
                continue
            total = creates if route == "edges" else persons
            lo = rng.randrange(max(1, total - PAGE))
            target = {
                "nodes": "/nodes/Person",
                "property": "/properties/Person/country",
                "edges": "/edges/creates",
            }[route]
            yield route, f"{target}?offset={lo}&limit={PAGE}", lo


class Server:
    """``python -m repro.cli serve social_network`` on a free port."""

    def __init__(self, ctx, index):
        self.ctx = ctx
        self.spool = ctx.scratch(f"serve-spool-{index}")
        self.log = ctx.workdir / f"serve-{index}.log"
        self.process = None
        self.port = None

    def boot(self):
        """Start the server and wait for ``/readyz``; returns the
        seconds from process start to ready."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.ctx.root / "src")
        command = [
            sys.executable, "-m", "repro.cli", "serve",
            "social_network",
            "--scale", f"Person={self.ctx.sizes['serve_person']}",
            "--seed", str(self.ctx.seed), "--port", "0",
            "--spool-dir", str(self.spool),
        ]
        start = time.perf_counter()
        with open(self.log, "w") as log:
            self.process = subprocess.Popen(
                command, stdout=subprocess.PIPE, stderr=log,
                text=True, env=env, cwd=self.ctx.workdir,
            )
        line = self.process.stdout.readline()
        if "http://" not in line:
            self.stop()
            raise RuntimeError(
                f"serve did not announce an address: {line!r} "
                f"(see {self.log})"
            )
        self.port = int(line.rstrip().rstrip("/").rsplit(":", 1)[1])
        while True:
            status, _ = self.get("/readyz")
            if status == 200:
                return time.perf_counter() - start
            if time.perf_counter() - start > BOOT_TIMEOUT_S \
                    or self.process.poll() is not None:
                self.stop()
                raise RuntimeError(f"serve never became ready ({status})")
            time.sleep(0.01)

    def connect(self):
        return http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=30
        )

    def get(self, path):
        conn = self.connect()
        try:
            return _round_trip(conn, path, {"Connection": "close"})
        finally:
            conn.close()

    def peak_rss_mb(self):
        """The server's ``VmHWM``: its peak resident set so far."""
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM line in /proc status")

    def stop(self):
        """SIGTERM, wait for the drain, kill as a last resort;
        returns the exit code."""
        if self.process is None:
            return None
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        return self.process.returncode


class ServeWorkload:
    """Boot, drive one phase, stop — several times per run."""

    name = None
    keepalive = None

    def __init__(self, ctx):
        self.ctx = ctx

    def setup(self):
        """Export the same compiled scenario in process, once: the
        bytes every served CSV page is compared against."""
        from repro.scenarios import (
            compile_scenario,
            load_zoo,
            run_scenario,
        )

        self.compiled = compile_scenario(
            load_zoo("social_network"),
            scale={"Person": self.ctx.sizes["serve_person"]},
            seed=self.ctx.seed,
        )
        out = self.ctx.scratch("export")
        run_scenario(self.compiled, workers=1, out_dir=out,
                     formats=["csv"], validate=False)
        self.pages = {
            "property": oracle.CsvPages(out / "Person.country.csv"),
            "edges": oracle.CsvPages(out / "creates.csv"),
        }
        self.persons = len(self.pages["property"])
        self.creates = len(self.pages["edges"])

    def wrong(self, request, status, body):
        """Why a response counts as failed, or ``None``."""
        route, _, lo = request
        if status != 200:
            return f"status {status}"
        if not body:
            return "empty body"
        pages = self.pages.get(route)
        if pages is not None and body != pages.page(lo, lo + PAGE):
            return "bytes differ from the export"
        return None

    def drive(self, server, stream, seconds):
        """Send requests one at a time for ``seconds``; returns
        ``(latencies, requests sent, failures, bytes received)``."""
        latencies, sent, failures, received = [], [], [], 0
        conn = server.connect() if self.keepalive else None
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or not sent:
            request = next(stream)
            sent.append(request)
            start = time.perf_counter()
            try:
                if self.keepalive:
                    status, body = _round_trip(conn, request[1], {})
                else:
                    fresh = server.connect()
                    try:
                        status, body = _round_trip(
                            fresh, request[1], {"Connection": "close"}
                        )
                    finally:
                        fresh.close()
            except (http.client.HTTPException, OSError) as error:
                failures.append(f"{request[1]}: {error!r}")
                if self.keepalive:
                    conn.close()
                    conn = server.connect()
                continue
            latencies.append(time.perf_counter() - start)
            received += len(body)
            problem = self.wrong(request, status, body)
            if problem:
                failures.append(f"{request[1]}: {problem}")
        if self.keepalive:
            conn.close()
        return latencies, sent, failures, received

    def boots(self, count, seconds):
        """Boot ``count`` servers in turn, sharing ``seconds`` of
        driving between them; one record per boot."""
        stream = request_stream(
            self.ctx.seed, self.persons, self.creates
        )
        records = []
        for index in range(count):
            server = Server(self.ctx, index)
            try:
                boot_s = server.boot()
                latencies, sent, failures, received = self.drive(
                    server, stream, seconds / count
                )
                rss = server.peak_rss_mb()
            finally:
                code = server.stop()
            if code != 0:
                failures.append(f"server exit code {code}")
            records.append({
                "boot_s": boot_s, "latencies": latencies, "sent": sent,
                "failures": failures, "received": received, "rss": rss,
            })
        return records

    def measure(self, seconds, own_setup_s):
        records = self.boots(self.ctx.setup_samples, seconds)
        pooled = [s for r in records for s in r["latencies"]]
        failures = [f for r in records for f in r["failures"]]
        attempted = sum(len(r["sent"]) for r in records)
        boots = [r["boot_s"] for r in records]
        return {
            "attempted": attempted,
            "failed": min(attempted, len(failures)),
            "failures": failures[:20],
            "metrics": {
                "setup_s": median(boots),
                "throughput_per_s": len(pooled) / sum(pooled),
                "op_p50_ms": median(pooled) * 1e3,
                "peak_rss_mb": median([r["rss"] for r in records]),
            },
            "samples": {
                "setup_s": sample(boots),
                "throughput_per_s": sample([
                    len(r["latencies"]) / sum(r["latencies"])
                    for r in records
                ]),
                "op_p50_ms": sample(
                    [median(r["latencies"]) for r in records]
                ) | {"n": len(pooled)},
                "peak_rss_mb": sample([r["rss"] for r in records]),
            },
            "notes": {"clients": 1, "loop": "closed",
                      "boots": len(records), "requests": attempted},
        }

    # -- traced: the same requests, in process ----------------------------

    def replay(self, graph, sent, tracer=None):
        """Answer ``sent`` by calling the virtual graph directly, the
        way the HTTP handler does.  With a tracer: one span per call,
        returns seconds per route.  Without: returns the wall."""
        import numpy as np

        calls = {
            "nodes": lambda lo: graph.node_records(
                "Person", np.arange(lo, lo + PAGE, dtype=np.int64)),
            "property": lambda lo: graph.node_properties_of(
                "Person", "country",
                np.arange(lo, lo + PAGE, dtype=np.int64)),
            "edges": lambda lo: graph.edges_range(
                "creates", lo, min(lo + PAGE, self.creates)),
            "neighbors": lambda lo: graph.neighbors_of(
                "knows", lo, "both"),
        }
        if tracer is None:
            start = time.perf_counter()
            for route, _, lo in sent:
                calls[route](lo)
            return time.perf_counter() - start
        seconds = {route: [] for route in ROUTES}
        with tracer.span("replay", "root"):
            for route, path, lo in sent:
                with tracer.span(path, "serve", route) as span:
                    calls[route](lo)
                seconds[route].append(span["end"] - span["start"])
        return seconds

    def traced(self, seconds):
        from repro.serve import VirtualGraph

        # Half the time drives HTTP; the replays take what is left.
        (record,) = self.boots(1, seconds / 2)
        latencies = sorted(record["latencies"])
        graph, warm_s = timed(lambda: VirtualGraph.from_scenario(
            self.compiled, spool_dir=self.ctx.scratch("replay-spool"),
        ).warm())
        try:
            tracer = Tracer(f"{self.name}-{self.ctx.seed}")
            # Three passes: one to fill caches, one without spans as
            # the untraced reference, one with a span per call.
            self.replay(graph, record["sent"])
            plain_wall = self.replay(graph, record["sent"])
            per_route = self.replay(graph, record["sent"], tracer)
        finally:
            graph.close()
        in_process = median([s for v in per_route.values() for s in v])
        tail_pct, tail = tail_latency(latencies)
        layers = {
            f"serve.virtual.{route}_ms": median(values) * 1e3
            for route, values in per_route.items()
        }
        layers.update({
            "serve.virtual.warm_s": warm_s,
            "serve.http.p50_ms": median(latencies) * 1e3,
            "serve.http.tail_ms": tail * 1e3,
            "serve.http.tail_percentile": tail_pct,
            "serve.http.overhead_ms":
                (median(latencies) - in_process) * 1e3,
            "serve.http.requests": len(record["sent"]),
            "serve.http.failed": len(record["failures"]),
            "serve.http.bytes_out": record["received"],
            "trace.coverage": coverage(tracer.spans),
            "trace.wall_s": traced_wall(tracer.spans),
            "trace.untraced_wall_s": plain_wall,
            "trace.overhead_pct": 100.0 * (
                traced_wall(tracer.spans) / plain_wall - 1.0
            ),
        })
        attempted = len(record["sent"])
        return {
            "attempted": attempted,
            "failed": min(attempted, len(record["failures"])),
            "failures": record["failures"][:20],
            "metrics": layers,
            "samples": {"serve.http.p50_ms": sample(latencies)},
            "notes": {"clients": 1, "loop": "closed"},
            "spans": tracer.spans,
        }


def _round_trip(conn, path, headers):
    conn.request("GET", path, headers=headers)
    response = conn.getresponse()
    return response.status, response.read()


def tail_latency(ordered):
    """``(percentile, value)``: the highest of p99, p95 and p90 with at
    least ten samples beyond it, else the slowest sample (p100)."""
    count = len(ordered)
    for percentile in (99, 95, 90):
        beyond = count - (count * percentile) // 100
        if beyond >= 10:
            return percentile, ordered[count - beyond]
    return 100, ordered[-1]


class ServeKeepalive(ServeWorkload):
    name = "serve_keepalive"
    keepalive = True


class ServeFresh(ServeWorkload):
    name = "serve_fresh"
    keepalive = False
