"""The benchmark's own checks, on a ``--quick`` run.

Collected by the repository's tier-1 ``pytest`` run.  They pin the
contract between ``BENCHMARK.json`` and what the harness prints, the
span arithmetic behind the per-layer numbers, and that the output
oracle really fails on a changed byte.
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bench import compare, oracle
from bench.trace import nesting_problems, self_times, traced_wall
from bench.workloads import export_failures

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")
QUICK_WORKLOADS = ("social_full", "serve_keepalive", "serve_fresh")


def bench(*arguments, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "-m", "bench", *arguments],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    """One all-workload ``--quick`` run over three workloads."""
    out = tmp_path_factory.mktemp("bench-out")
    done = bench(
        "--quick", "--seed", "11", "--out", str(out),
        "--workdir", str(out / "work"),
        "--workloads", ",".join(QUICK_WORKLOADS),
    )
    assert done.returncode == 0, done.stdout + done.stderr
    with open(out / "result.json", encoding="utf-8") as handle:
        return out, json.load(handle), done.stdout


def test_names_are_plain(spec):
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert "setup_s" in [m["name"] for m in spec["end_to_end"]]


def test_every_declared_workload_is_implemented(spec):
    from bench.cli import WORKLOADS

    assert sorted(WORKLOADS) == sorted(w["name"] for w in spec["workloads"])


def test_every_declared_metric_is_emitted_with_its_unit(spec, quick_run):
    _, result, stdout = quick_run
    for name in QUICK_WORKLOADS:
        entry = result["workloads"][name]
        assert entry["correct"], entry["failures"]
        assert entry["failed_share"] == 0
        for group, key in (("metrics", "end_to_end"),
                           ("layers", "per_layer")):
            assert list(entry[group]) == [m["name"] for m in spec[key]]
            for metric in spec[key]:
                emitted = entry[group][metric["name"]]
                assert emitted["unit"] == metric["unit"]
                assert isinstance(emitted["value"], (int, float))
                assert metric["name"] in stdout
        assert all(v["value"] > 0 for v in entry["metrics"].values())
    # A layer the workload bypasses reads 0; one it uses does not.
    social = result["workloads"]["social_full"]["layers"]
    assert social["serve.http.requests"]["value"] == 0
    assert social["structure.busy_s"]["value"] > 0
    fresh = result["workloads"]["serve_fresh"]["layers"]
    assert fresh["structure.busy_s"]["value"] == 0
    assert fresh["serve.http.requests"]["value"] > 0


def test_result_records_its_environment(quick_run):
    _, result, _ = quick_run
    environment = result["environment"]
    for key in ("git_sha", "git_dirty", "python", "numpy", "nproc",
                "matching_impl", "property_impl"):
        assert key in environment
    assert environment["threads"] == "1"
    # Every child removed its scratch directory.
    assert not any((quick_run[0] / "work").iterdir())


def test_spans_nest_and_self_times_sum_to_the_traced_wall(quick_run):
    out, result, _ = quick_run
    for name in QUICK_WORKLOADS:
        with open(out / f"spans-{name}.json", encoding="utf-8") as handle:
            spans = json.load(handle)
        assert spans and not nesting_problems(spans)
        assert len({span["run"] for span in spans}) == 1
        wall = traced_wall(spans)
        assert sum(self_times(spans).values()) == pytest.approx(
            wall, rel=0.05
        )
    # On social_full the five layers account for the traced wall.
    layers = result["workloads"]["social_full"]["layers"]
    busy = sum(
        layers[f"{layer}.busy_s"]["value"]
        for layer in ("properties", "structure", "export", "validation")
    ) + sum(
        layers[f"matching.{part}_s"]["value"]
        for part in ("prepare", "place", "score")
    )
    assert busy == pytest.approx(
        layers["trace.wall_s"]["value"], rel=0.05
    )
    assert layers["trace.coverage"]["value"] >= 0.95


def test_one_workload_prints_the_contract_object_last(spec):
    done = bench("--workload", "match_rmat16_k64", "--quick",
                 "--seed", "3", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [
        m["name"] for m in spec["end_to_end"]
    ]


def test_fails_without_a_program_to_measure(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "social_full", "--seed", "1",
                 "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "{" not in done.stdout


def test_oracle_fails_on_a_flipped_byte(tmp_path):
    from repro.scenarios import compile_scenario, load_zoo, run_scenario

    compiled = compile_scenario(
        load_zoo("social_network"), scale={"Person": 300}, seed=5
    )
    run_scenario(compiled, out_dir=tmp_path / "a", formats=["csv"],
                 validate=False)
    reference = oracle.tree_digests(tmp_path / "a")
    run = {"failures": [], "digests": dict(reference)}
    assert export_failures([run], reference) == []

    victim = tmp_path / "a" / "knows.csv"
    data = bytearray(victim.read_bytes())
    data[len(data) // 2] ^= 0x01
    victim.write_bytes(bytes(data))
    run["digests"] = oracle.tree_digests(tmp_path / "a")
    failures = export_failures([run], reference)
    assert len(failures) == 1 and "knows.csv" in failures[0]

    pages = oracle.CsvPages(tmp_path / "a" / "Person.country.csv")
    text = (tmp_path / "a" / "Person.country.csv").read_bytes()
    assert b"id,value\r\n" + pages.page(0, len(pages)) == text
    assert pages.page(2, 4).count(b"\r\n") == 2


def test_compare_flags_a_regression_and_a_wide_spread(
        spec, quick_run, tmp_path, capsys):
    _, result, _ = quick_run
    a = tmp_path / "a.json"
    a.write_text(json.dumps(result))
    assert compare.main(a, a, spec) == 0

    slower = copy.deepcopy(result)
    metrics = slower["workloads"]["social_full"]["metrics"]
    metrics["peak_rss_mb"]["value"] *= 1.5
    noisy = slower["workloads"]["serve_fresh"]
    noisy["metrics"]["op_p50_ms"]["value"] *= 1.5
    noisy["samples"]["op_p50_ms"]["spread"] = 0.9
    b = tmp_path / "b.json"
    b.write_text(json.dumps(slower))
    capsys.readouterr()
    assert compare.main(a, b, spec) == 1
    table = {
        (row["workload"], row["metric"]): row["verdict"]
        for row in compare.rows(result, slower, spec)
    }
    assert table["social_full", "peak_rss_mb"] == "regressed"
    assert table["serve_fresh", "op_p50_ms"] == "unresolved"
    assert table["social_full", "setup_s"] == "ok"
