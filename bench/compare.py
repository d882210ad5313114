"""``python3 -m bench --compare A.json B.json``.

For every workload and end-to-end metric of two result files: both
values, B over A, how much worse B is as a share of A, the bound from
``BENCHMARK.json``, and a verdict.  ``regressed`` means B is worse by
more than the bound; ``unresolved`` means the spread inside either run
is wider than the bound, so neither "same" nor "worse" can be said.
Counts that must repeat exactly (failed operations, the matching KS
at equal seeds) regress on any difference.  Exit code 1 on any
regression.
"""

from __future__ import annotations

import json

#: per-layer values that are a pure function of the seed.
EXACT_LAYERS = ("matching.ks", "validation.joint_ks")


def load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def verdict(a, b, better, bound, spread):
    """``(worse_by, verdict)`` for one metric, A being the base."""
    worse_by = (b - a) / a if better == "lower" else (a - b) / a
    if spread > bound:
        return worse_by, "unresolved"
    return worse_by, "regressed" if worse_by > bound else "ok"


def rows(a, b, spec):
    """One row per workload and metric present in both files."""
    table = []
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric in spec["end_to_end"]:
            key = metric["name"]
            va = wa["metrics"][key]["value"]
            vb = wb["metrics"][key]["value"]
            spread = max(
                w["samples"].get(key, {}).get("spread", 0.0)
                for w in (wa, wb)
            )
            worse_by, result = verdict(
                va, vb, metric["better"], metric["bound"], spread
            )
            table.append({
                "workload": name, "metric": key, "a": va, "b": vb,
                "ratio": vb / va, "worse_by": worse_by,
                "bound": metric["bound"], "spread": spread,
                "verdict": result,
            })
        table.append({
            "workload": name, "metric": "failed_share",
            "a": wa["failed_share"], "b": wb["failed_share"],
            "bound": 0.0,
            "verdict": "regressed"
            if wb["failed_share"] > wa["failed_share"] else "ok",
        })
        if a["seed"] == b["seed"] and a["quick"] == b["quick"]:
            for key in EXACT_LAYERS:
                va = wa["layers"][key]["value"]
                vb = wb["layers"][key]["value"]
                table.append({
                    "workload": name, "metric": key, "a": va, "b": vb,
                    "bound": 0.0,
                    "verdict": "ok" if va == vb else "regressed",
                })
    return table


def main(path_a, path_b, spec):
    a, b = load(path_a), load(path_b)
    table = rows(a, b, spec)
    print(f"A = {path_a} ({a['environment']['git_sha']})")
    print(f"B = {path_b} ({b['environment']['git_sha']})")
    print(f"{'workload':20s} {'metric':18s} {'A':>12s} {'B':>12s} "
          f"{'B/A':>7s} {'worse by':>9s} {'bound':>6s} verdict")
    for row in table:
        ratio = f"{row['ratio']:.3f}" if "ratio" in row else ""
        worse = f"{row['worse_by']:+.1%}" if "worse_by" in row else ""
        print(f"{row['workload']:20s} {row['metric']:18s} "
              f"{row['a']:12.6g} {row['b']:12.6g} {ratio:>7s} "
              f"{worse:>9s} {row['bound']:6.2f} {row['verdict']}")
    regressed = [r for r in table if r["verdict"] == "regressed"]
    unresolved = [r for r in table if r["verdict"] == "unresolved"]
    print(f"{len(table)} comparisons (ratios are B over A): "
          f"{len(regressed)} regressed, {len(unresolved)} unresolved")
    return 1 if regressed else 0
