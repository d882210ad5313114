#!/usr/bin/env python
"""Serve-vs-generate byte-identity smoke: export the virtual graph of
a zoo recipe (``export_graph(VirtualGraph(...).graph, sink)``) and
tree-diff it, whole files, against a real ``run_scenario`` export of
the same compiled scenario; then boot a live server over it, page
every node-property and edge CSV route, and diff the reassembled bytes
against the same export.

This is the CI ``serve-smoke`` job: a server that drifts from the
export format by a single byte — header, CRLF, value encoding, page
stitching — exits 1 here.  Serving throughput is measured by the
``serve_fresh`` and ``serve_keepalive`` workloads of ``python3 -m
bench``.  Also probes the non-CSV contracts: the
meta route's access classification, neighbourhood queries against the
materialised edge tables, edge existence, and the empty-page rule for
past-the-end offsets.

Usage::

    PYTHONPATH=src python tools/serve_smoke.py --scenario social_network

Stdlib + numpy only, like every other CI tool here.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import threading
import urllib.request
from pathlib import Path


def _get(base, path):
    with urllib.request.urlopen(base + path) as response:
        return response.read()


def _boot_cli(scenario, scale_args):
    """Boot the server as the real CLI (``repro serve --port 0``).

    Returns ``(base_url, stop)`` where ``stop()`` SIGTERMs the process
    and asserts the graceful-drain contract: exit code 0 and no leaked
    ``repro-serve-*`` spool.  The chosen port is read back from the
    first stdout line — the same line operators script against.
    """
    import os
    import signal
    import subprocess
    import time
    import urllib.error

    tmp = tempfile.mkdtemp(prefix="repro-serve-smoke-tmp-")
    env = dict(os.environ)
    env["TMPDIR"] = tmp
    cmd = [sys.executable, "-m", "repro.cli", "serve", scenario,
           "--port", "0"]
    for item in scale_args:
        cmd += ["--scale", item]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True, env=env)
    line = proc.stdout.readline()
    if "http://" not in line:
        proc.kill()
        raise SystemExit(f"serve did not announce an address: {line!r}")
    base = line.split("on ", 1)[1].strip().rstrip("/")
    deadline = time.monotonic() + 120
    while True:  # data routes 503 until warm; poll readiness
        try:
            _get(base, "/readyz")
            break
        except urllib.error.HTTPError as exc:
            if exc.code != 503 or time.monotonic() > deadline:
                proc.kill()
                raise
            time.sleep(0.1)

    def stop():
        proc.send_signal(signal.SIGTERM)
        code = proc.wait(timeout=30)
        leaked = [name for name in os.listdir(tmp)
                  if name.startswith(("repro-serve-", "repro-spool-"))]
        ok = _check("CLI SIGTERM drains cleanly",
                    code == 0 and not leaked,
                    f"exit={code} leaked={leaked}")
        import shutil

        shutil.rmtree(tmp, ignore_errors=True)
        return ok

    return base, stop


def _paged_csv(base, route, header, page):
    """Reassemble one CSV file from paginated responses — the client
    loop the pagination contract promises: walk ``offset += limit``
    until a short (or empty) page."""
    parts = [header]
    offset = 0
    while True:
        body = _get(base, f"{route}?format=csv&offset={offset}&limit={page}")
        parts.append(body)
        rows = body.count(b"\r\n")
        offset += page
        if rows < page:
            return b"".join(parts)


def _check(label, ok, detail=""):
    status = "ok" if ok else "MISMATCH"
    print(f"  [{status}] {label}" + (f" ({detail})" if detail else ""))
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--scenario", default="social_network")
    parser.add_argument("--scale", action="append", default=[],
                        metavar="TYPE=COUNT")
    parser.add_argument("--page", type=int, default=97,
                        help="page size for reassembly (a non-divisor "
                             "exercises partial final pages)")
    parser.add_argument("--boot", choices=["inprocess", "cli"],
                        default="inprocess",
                        help="'cli' boots `repro serve --port 0` as a "
                             "subprocess, reads the chosen port back "
                             "from stdout, and asserts the SIGTERM "
                             "graceful-drain contract on teardown")
    args = parser.parse_args(argv)

    from repro.io import export_graph, make_sink
    from repro.scenarios import compile_scenario, run_scenario
    from repro.scenarios.zoo import load_zoo
    from repro.serve import VirtualGraph, create_server

    scale = {}
    for item in args.scale:
        key, _, value = item.partition("=")
        scale[key] = int(value)

    compiled = compile_scenario(load_zoo(args.scenario),
                                scale=scale or None)
    print(f"serve-smoke: scenario {args.scenario!r} "
          f"scale={compiled.scale} seed={compiled.seed}")

    # The reference: a real serial run_scenario CSV export.  Planted
    # recipes export the overlaid world — the server must match the
    # *planted* files (appended edges, forced attributes).
    out_dir = Path(tempfile.mkdtemp(prefix="repro-serve-smoke-"))
    graph, _, paths = run_scenario(
        compiled, workers=1, out_dir=out_dir / "export",
        formats=["csv"], chunk_size=4096, compress=False,
        validate=False,
    )
    plants = list(getattr(compiled, "plants", []) or [])
    plan = graph.plan if plants else None
    written = {Path(p).stem: Path(p) for p in paths
               if str(p).endswith(".csv")}

    # The subject, first as files: the virtual graph is a
    # PropertyGraph of lazy tables, so the exporter writes it like any
    # other — every file must equal the reference's.
    failures = 0
    virtual = VirtualGraph.from_scenario(compiled, chunk_rows=512)
    sink = make_sink("csv", out_dir / "served", chunk_size=4096,
                     compress=False)
    if plan is not None:
        sink.extra_manifest = {"planting": plan.to_dict()}
    export_graph(virtual.graph, sink)
    exported = {p.name: p.read_bytes()
                for p in (out_dir / "export").iterdir()}
    exported.pop("ground_truth.json", None)  # run_scenario's, not a sink's
    served_files = {p.name: p.read_bytes()
                    for p in (out_dir / "served").iterdir()}
    differing = sorted(
        name for name in exported.keys() | served_files.keys()
        if exported.get(name) != served_files.get(name)
    )
    if not _check("export_graph(virtual.graph) == run_scenario export",
                  not differing,
                  f"{len(exported)} files" if not differing
                  else f"differ: {differing}"):
        failures += 1

    # Then over loopback HTTP — in-process, or as the real CLI
    # subprocess (--boot cli).
    server = stop_cli = None
    if args.boot == "cli":
        virtual.close()
        base, stop_cli = _boot_cli(args.scenario, args.scale)
    else:
        virtual.warm()
        server = create_server(virtual, port=0)
        threading.Thread(target=server.serve_forever,
                         daemon=True).start()
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"

    try:
        meta = json.loads(_get(base, "/"))
        edges = meta["classification"]["edges"]
        print(f"  server up on {base}; edge modes: "
              + ", ".join(f"{k}={v['mode']}" for k, v in edges.items()))

        schema = compiled.schema
        for type_name, node_type in schema.node_types.items():
            for prop in node_type.properties:
                stem = f"{type_name}.{prop.name}"
                exported = written[stem].read_bytes()
                served = _paged_csv(
                    base, f"/properties/{type_name}/{prop.name}",
                    b"id,value\r\n", args.page)
                if not _check(f"property csv {stem}", served == exported,
                              f"{len(exported)} bytes"):
                    failures += 1

        for edge_name in schema.edge_types:
            exported = written[edge_name].read_bytes()
            served = _paged_csv(base, f"/edges/{edge_name}",
                                b"id,tailId,headId\r\n", args.page)
            if not _check(f"edge csv {edge_name}", served == exported,
                          f"{len(exported)} bytes"):
                failures += 1

            # Neighbourhood + existence against the materialised table.
            table = graph.edges(edge_name)
            tails = table.tails
            heads = table.heads
            probe = int(tails[0])
            expected = sorted(
                int(v) for v in
                list(heads[tails == probe]) + (
                    [] if table.directed
                    else list(tails[(heads == probe) & (tails != heads)]))
            )
            payload = json.loads(_get(
                base,
                f"/neighbors/{edge_name}/{probe}"
                f"?direction={'out' if table.directed else 'both'}"
                f"&limit=65536"))
            if not _check(f"neighbors {edge_name}/{probe}",
                          sorted(payload["neighbors"]) == expected,
                          f"{len(expected)} neighbours"):
                failures += 1

            exists = json.loads(_get(
                base, f"/edges/{edge_name}/exists"
                      f"?src={int(tails[0])}&dst={int(heads[0])}"))
            if not _check(f"exists {edge_name} first edge",
                          exists["exists"] is True):
                failures += 1

        # Planted recipes: every injected (non-deleted) template edge
        # must be visible through the live existence route.
        if plants:
            edge_of = {p.name: p.edge for p in plan.plants}
            missing = 0
            probes = 0
            for inst in plan.instances:
                for record in inst.edges:
                    if record["status"] != "planted":
                        continue
                    u, v = record["world"]
                    exists = json.loads(_get(
                        base,
                        f"/edges/{edge_of[inst.plant]}/exists"
                        f"?src={u}&dst={v}"))
                    probes += 1
                    if exists["exists"] is not True:
                        missing += 1
            if not _check("planted edges visible via /exists",
                          missing == 0,
                          f"{probes - missing}/{probes} present"):
                failures += 1

        # Pagination contract: a past-the-end offset is an empty 200.
        some_type = next(iter(schema.node_types))
        body = _get(base, f"/properties/{some_type}/"
                          f"{schema.node_types[some_type].properties[0].name}"
                          f"?format=csv&offset=10000000&limit=64")
        if not _check("past-the-end offset is empty 200", body == b""):
            failures += 1
    finally:
        if stop_cli is not None:
            if not stop_cli():
                failures += 1
        else:
            server.shutdown()
            server.server_close()
            virtual.close()

    if failures:
        print(f"serve-smoke: {failures} mismatch(es)", file=sys.stderr)
        return 1
    print("serve-smoke: all responses byte-identical to export")
    return 0


if __name__ == "__main__":
    sys.exit(main())
