"""Command line of the benchmark.

Three uses::

    python3 -m bench --workload W --seed N --seconds S --trace 0|1
        one workload in this process; the last stdout line is one JSON
        object {correct, attempted, failed, metrics}

    python3 -m bench --seed 7 --out DIR [--quick]
        every workload, untraced then traced, each in a fresh child
        process; writes DIR/result.json and DIR/spans-<workload>.json

    python3 -m bench --compare A.json B.json
        two result files against the bounds in BENCHMARK.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

from . import compare
from .serving import ServeFresh, ServeKeepalive
from .workloads import (
    Context,
    MatchRmat,
    ShardedO2M,
    ShardedSocialP2,
    SocialDagP2,
    SocialFull,
)

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = {
    cls.name: cls for cls in (
        SocialFull, SocialDagP2, ShardedSocialP2, ShardedO2M,
        MatchRmat, ServeKeepalive, ServeFresh,
    )
}
#: ``--seconds`` of a ``--quick`` run: enough for one batch repeat and
#: a few dozen requests.
QUICK_SECONDS = 0.5


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="python3 -m bench", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small sizes, one repeat, one boot")
    parser.add_argument("--out", default="bench-out",
                        help="result directory of an all-workload run")
    parser.add_argument("--workloads", default=None,
                        help="comma-separated subset for an "
                             "all-workload run")
    parser.add_argument("--workdir", default=None,
                        help="scratch directory, removed on exit "
                             "(default: .bench_work/ in the checkout)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--detail-out", default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser


def main(argv=None, t0=None):
    t0 = time.perf_counter() if t0 is None else t0
    args = build_parser().parse_args(argv)
    if args.compare:
        return compare.main(*args.compare, load_spec())
    if args.seconds is None:
        args.seconds = (
            QUICK_SECONDS if args.quick else load_spec()["run_seconds"]
        )
    if args.workload:
        return run_one(args, t0)
    return run_all(args)


# -- one workload, in this process -------------------------------------------


def pin_environment(workdir):
    """One BLAS/OpenMP thread, and every temporary file, compiled
    kernel and spool inside the checkout.  Must run before numpy is
    imported; children inherit it."""
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    os.environ["TMPDIR"] = str(workdir)
    os.environ["REPRO_CKERNEL_CACHE"] = str(
        ROOT / ".bench_build" / "ckernel"
    )
    source = str(ROOT / "src")
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = (
        source + os.pathsep + inherited if inherited else source
    )
    sys.path.insert(0, source)


def environment():
    """Where and on what the numbers were taken."""
    import numpy

    from repro.core.matching import available_impls
    from repro.properties._ckernel import resolve_impl

    def git(*command):
        done = subprocess.run(
            ("git",) + command, cwd=ROOT, capture_output=True,
            text=True,
        )
        return done.stdout.strip() if done.returncode == 0 else None

    status = git("status", "--porcelain")
    return {
        "git_sha": git("rev-parse", "--short", "HEAD") or "unknown",
        "git_dirty": bool(status) if status is not None else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count() or 1,
        "matching_impl": available_impls()[0],
        "property_impl": resolve_impl(),
        "threads": os.environ["OMP_NUM_THREADS"],
    }


def declared(spec, trace):
    """``{metric name: unit}`` a run with this ``--trace`` must emit."""
    key = "per_layer" if trace else "end_to_end"
    return {entry["name"]: entry["unit"] for entry in spec[key]}


def contract_result(outcome, units):
    """The driver's result object.  Per-layer metrics a workload does
    not touch are reported as 0: the layer was bypassed."""
    unknown = sorted(set(outcome["metrics"]) - set(units))
    if unknown:
        raise RuntimeError(
            f"metrics not declared in BENCHMARK.json: {unknown}"
        )
    return {
        "correct": outcome["failed"] == 0,
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": {
            name: {"value": outcome["metrics"].get(name, 0),
                   "unit": unit}
            for name, unit in units.items()
        },
    }


def run_one(args, t0):
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no program to measure: {ROOT / 'src' / 'repro'} "
              "is missing", file=sys.stderr)
        return 2
    spec = load_spec()
    workdir = Path(
        args.workdir
        or ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    ).resolve()
    workdir.mkdir(parents=True, exist_ok=True)
    pin_environment(workdir)
    try:
        ctx = Context(seed=args.seed, quick=args.quick,
                      workdir=workdir, root=ROOT)
        workload = WORKLOADS[args.workload](ctx)
        workload.setup()
        own_setup_s = time.perf_counter() - t0
        if args.setup_probe:
            print(repr(own_setup_s))
            return 0
        if args.trace:
            outcome = workload.traced(args.seconds)
        else:
            outcome = workload.measure(args.seconds, own_setup_s)
        result = contract_result(outcome, declared(spec, args.trace))
        for failure in outcome["failures"]:
            print(f"FAILED {failure}", file=sys.stderr)
        for name, metric in result["metrics"].items():
            print(f"{args.workload:20s} {name:32s} "
                  f"{metric['value']:.6g} {metric['unit']}")
        if args.detail_out:
            detail = dict(outcome, result=result,
                          environment=environment())
            with open(args.detail_out, "w", encoding="utf-8") as handle:
                json.dump(detail, handle)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not args.workdir:
            try:
                workdir.parent.rmdir()  # .bench_work/, when empty
            except OSError:
                pass


# -- every workload, one child process per run --------------------------------


def run_child(args, name, trace, out):
    detail_path = out / f".detail-{name}-{trace}.json"
    command = [
        sys.executable, "-m", "bench", "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--detail-out", str(detail_path),
    ]
    if args.quick:
        command.append("--quick")
    if args.workdir:
        command += ["--workdir",
                    str(Path(args.workdir) / f"{name}-{trace}")]
    done = subprocess.run(command, cwd=ROOT, capture_output=True,
                          text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(
            f"{name} --trace {trace} exited with {done.returncode}"
        )
    with open(detail_path, encoding="utf-8") as handle:
        detail = json.load(handle)
    detail_path.unlink()
    return detail


def run_all(args):
    spec = load_spec()
    out = Path(args.out).resolve()
    out.mkdir(parents=True, exist_ok=True)
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    document = {
        "schema": "bench/1", "seed": args.seed, "quick": args.quick,
        "seconds": args.seconds, "workloads": {},
    }
    for name in names:
        plain = run_child(args, name, 0, out)
        traced = run_child(args, name, 1, out)
        document["environment"] = plain["environment"]
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
        entry = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "failed_share": failed / attempted,
            "failures": plain["failures"] + traced["failures"],
            "metrics": plain["result"]["metrics"],
            "layers": traced["result"]["metrics"],
            "samples": {**traced["samples"], **plain["samples"]},
            "notes": {**traced["notes"], **plain["notes"]},
        }
        document["workloads"][name] = entry
        with open(out / f"spans-{name}.json", "w",
                  encoding="utf-8") as handle:
            json.dump(traced["spans"], handle, indent=1)
        print(f"{name}: {'ok' if entry['correct'] else 'INCORRECT'} "
              f"({failed} of {attempted} operations failed)")
        for group in ("metrics", "layers"):
            for metric, value in entry[group].items():
                count = entry["samples"].get(metric, {}).get("n")
                print(f"  {metric:32s} {value['value']:>14.6g} "
                      f"{value['unit']}"
                      + (f"  (n={count})" if count else ""))
    with open(out / "result.json", "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
    print(f"wrote {out / 'result.json'}")
    correct = all(w["correct"] for w in document["workloads"].values())
    return 0 if correct else 1
