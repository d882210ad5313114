#!/usr/bin/env python
"""Chaos smoke: kill a worker mid-run, resume, byte-diff the export.

The CI ``chaos-smoke`` job's gate for docs/robustness.md: a zoo recipe
is run three ways on the process backend —

1. uninterrupted (the reference export and the throughput baseline),
2. with an injected ``shard:N:kill`` SIGKILL and no retries: the run
   must *fail*, leaving a resumable checkpoint in its spool, after
   which ``resume`` must complete and export byte-identical files,
3. with the same SIGKILL but ``retries=2``: one run, no manual
   intervention, byte-identical files.

Exits 1 on any surviving difference or on a chaos run that fails to
fail / recover.  Writes a ``repro-bench/1`` JSON row recording clean
throughput and the crash+resume wall-clock overhead so
``benchmarks/check_perf_regression.py`` can gate it against the
committed ``BENCH_scale.json`` baseline.

Usage::

    PYTHONPATH=src python tools/chaos_smoke.py --out chaos_fresh.json

Stdlib + numpy only, like every other CI tool here.
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path


def _tree_bytes(root):
    root = Path(root)
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def _check(label, ok, detail=""):
    status = "ok" if ok else "FAIL"
    print(f"  [{status}] {label}" + (f" ({detail})" if detail else ""))
    return ok


def _git_sha():
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except Exception:  # pragma: no cover - detached CI checkouts
        return "unknown"


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--scenario", default="social_network")
    parser.add_argument("--scale", action="append", default=["Person=2000"],
                        metavar="TYPE=COUNT")
    parser.add_argument("--shard-rows", type=int, default=256)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--kill-shard", type=int, default=3,
                        help="shard occurrence the injected SIGKILL hits")
    parser.add_argument("--out", default=None,
                        help="write a repro-bench/1 JSON here")
    args = parser.parse_args(argv)

    import numpy

    from repro.core import CHECKPOINT_NAME, ShardedError, ShardedExecutor
    from repro.io import make_sink
    from repro.scenarios import compile_scenario
    from repro.scenarios.zoo import load_zoo

    scale = {}
    for item in args.scale:
        key, _, value = item.partition("=")
        scale[key] = int(value)
    compiled = compile_scenario(load_zoo(args.scenario), scale=scale)
    print(f"chaos-smoke: scenario {args.scenario!r} "
          f"scale={compiled.scale} seed={compiled.seed} "
          f"shard_rows={args.shard_rows} workers={args.workers}")

    work = Path(tempfile.mkdtemp(prefix="repro-chaos-smoke-"))
    kill_spec = f"shard:{args.kill_shard}:kill"
    failures = 0

    def run(out, spool, **kwargs):
        executor = ShardedExecutor(
            compiled.schema, compiled.scale, seed=compiled.seed,
            shard_rows=args.shard_rows, workers=args.workers,
            backend="process", spool_dir=spool, **kwargs,
        )
        start = time.perf_counter()
        result = executor.run(sink=make_sink("csv", out))
        return result, time.perf_counter() - start

    try:
        # 1. The reference: one uninterrupted run.
        result, clean_wall = run(work / "clean", work / "clean-spool")
        edges = sum(
            len(table) for table in result.edge_tables.values()
        )
        rows = sum(result.node_counts.values()) + edges
        result.cleanup()
        expected = _tree_bytes(work / "clean")
        print(f"  clean run: {rows} rows in {clean_wall:.2f}s")

        # 2. Chaos leg: SIGKILL a worker, no retries -> must fail ...
        crash_wall = time.perf_counter()
        try:
            run(work / "chaos", work / "chaos-spool", faults=kill_spec)
        except ShardedError as exc:
            crash_wall = time.perf_counter() - crash_wall
            failures += not _check(
                "worker SIGKILL aborts the run", True,
                f"shard {exc.shard}")
        else:  # pragma: no cover - the bug this smoke exists to catch
            crash_wall = time.perf_counter() - crash_wall
            failures += not _check(
                "worker SIGKILL aborts the run", False, "run survived?")
        failures += not _check(
            "crashed spool keeps its checkpoint",
            (work / "chaos-spool" / CHECKPOINT_NAME).exists())

        # ... then resume from the checkpoint and byte-diff.
        result, resume_wall = run(
            work / "chaos", work / "chaos-spool", resume=True)
        result.cleanup()
        failures += not _check(
            "resumed export is byte-identical",
            _tree_bytes(work / "chaos") == expected,
            f"resume {resume_wall:.2f}s")

        # 3. Retry leg: same SIGKILL, retries=2, single run.
        result, retry_wall = run(
            work / "retry", work / "retry-spool",
            retries=2, faults=kill_spec)
        result.cleanup()
        failures += not _check(
            "retries=2 recovers the SIGKILL in-run",
            _tree_bytes(work / "retry") == expected,
            f"{retry_wall:.2f}s")

        overhead = (crash_wall + resume_wall) / max(clean_wall, 1e-9)
        print(f"  crash+resume overhead: {overhead:.2f}x of clean "
              f"({crash_wall:.2f}s + {resume_wall:.2f}s "
              f"vs {clean_wall:.2f}s)")
        if args.out:
            payload = {
                "schema": "repro-bench/1",
                "git_sha": _git_sha(),
                "machine": platform.machine(),
                "numpy": numpy.__version__,
                "profile": "chaos",
                "python": platform.python_version(),
                "rows": [{
                    "suite": "chaos",
                    "name": f"chaos_resume_{args.scenario}",
                    "edges": edges,
                    "wall_s": round(clean_wall, 3),
                    "rows_per_sec": round(rows / clean_wall, 1),
                    "resume_overhead_x": round(overhead, 2),
                    "retry_wall_s": round(retry_wall, 3),
                    "workers": args.workers,
                    "shard_rows": args.shard_rows,
                }],
            }
            Path(args.out).write_text(json.dumps(
                payload, indent=1, sort_keys=True) + "\n")
            print(f"  wrote {args.out}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if failures:
        print(f"chaos-smoke: {failures} failure(s)", file=sys.stderr)
        return 1
    print("chaos-smoke: crash, resume and retry all byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
