#!/usr/bin/env python
"""Chaos smoke: kill a worker mid-run, resume, byte-diff the export.

The CI ``chaos-smoke`` job's gate for docs/robustness.md: a zoo recipe
is run three ways on the process backend —

1. uninterrupted (the reference export and wall-clock time),
2. with an injected ``shard:N:kill`` SIGKILL and no retries: the run
   must *fail*, leaving a resumable checkpoint in its spool, after
   which ``resume`` must complete and export byte-identical files,
3. with the same SIGKILL but ``retries=2``: one run, no manual
   intervention, byte-identical files —

and once in memory (no shard size): ``property:0:crash`` with
``retries=1`` must fire, be retried inline and export the same bytes.

Exits 1 on any surviving difference or on a chaos run that fails to
fail / recover.  The clean and crash+resume wall-clock times are
printed for the log; nothing gates on them.

Usage::

    PYTHONPATH=src python tools/chaos_smoke.py

Stdlib + numpy only, like every other CI tool here.
"""

from __future__ import annotations

import argparse
import shutil
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


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--scenario", default="social_network")
    parser.add_argument("--scale", action="append", default=["Person=2000"],
                        metavar="TYPE=COUNT")
    parser.add_argument("--shard-rows", type=int, default=256)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--kill-shard", type=int, default=3,
                        help="shard occurrence the injected SIGKILL hits")
    args = parser.parse_args(argv)

    from repro.core import (
        CHECKPOINT_NAME,
        FaultPlan,
        InjectedFault,
        RunOptions,
        ShardedError,
    )
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

    generator = compiled.generator()

    def run(out, spool, **kwargs):
        options = RunOptions(
            shard_rows=args.shard_rows, workers=args.workers,
            backend="process", spool_dir=spool, **kwargs,
        )
        start = time.perf_counter()
        result = generator.generate(make_sink("csv", out), options)
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

        # 4. In-memory leg: one table crashes once, retries=1 recovers.
        crash = FaultPlan("property:0:crash", state_dir=work / "faults")
        try:
            generator.generate(
                make_sink("csv", work / "memory"),
                RunOptions(retries=1, faults=crash),
            )
            recovered = _tree_bytes(work / "memory") == expected
        except InjectedFault:
            recovered = False
        failures += not _check(
            "in memory, retries=1 recovers property:0:crash",
            recovered
            and crash.fired_count(crash.specs[0]) >= 1)  # it did fire

        overhead = (crash_wall + resume_wall) / max(clean_wall, 1e-9)
        print(f"  crash+resume overhead: {overhead:.2f}x of clean "
              f"({crash_wall:.2f}s + {resume_wall:.2f}s "
              f"vs {clean_wall:.2f}s)")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if failures:
        print(f"chaos-smoke: {failures} failure(s)", file=sys.stderr)
        return 1
    print("chaos-smoke: crash, resume and retry (out of core and in "
          "memory) all byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
