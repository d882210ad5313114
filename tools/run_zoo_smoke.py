#!/usr/bin/env python
"""Run every zoo scenario at smoke scale and collect graded reports.

The CI docs job runs this and uploads the output directory as the
``zoo-validation-reports`` artifact, so every PR carries the graded
pass/warn/fail report of each built-in scenario — scenario fidelity
stays comparable across PRs (the GRASP-style grading rationale).

Recipe scales are clamped to ``--max-scale`` (default 500) by
:func:`clamp_scale`: the first anchor is clamped directly and every
later anchor is scaled by the same ratio, so structurally coupled
counts (a bipartite head sized against its tail, say) keep their
declared proportions instead of dwarfing the clamped primary.
Power-of-two anchors stay powers of two (R-MAT needs ``n = 2^k``).
Exits 1 if any scenario grades F.

Usage::

    PYTHONPATH=src python tools/run_zoo_smoke.py --out zoo-reports/
"""

from __future__ import annotations

import argparse
import os
import sys


def _is_pow2(value):
    return value > 0 and value & (value - 1) == 0


def clamp_scale(scale, max_scale):
    """Clamp a recipe's scale anchors to a smoke budget.

    The *first* anchor is the primary: it is clamped to ``max_scale``.
    Every later anchor is scaled by the same ``clamped / declared``
    ratio (with a floor of 1), so multi-anchor recipes shrink
    uniformly — previously only the primary was clamped and, e.g., a
    ``{User: 4000, Item: 2000}`` recipe smoked with 500 users but the
    full 2000 items.  Anchors that are declared as powers of two are
    kept powers of two (rounded down) because R-MAT-style generators
    require ``n = 2^k``.
    """
    scale = dict(scale)
    if not scale:
        return scale
    items = list(scale.items())
    primary, declared = items[0]
    if declared <= max_scale:
        return scale
    clamped = int(max_scale)
    if _is_pow2(declared):
        clamped = 1 << (clamped.bit_length() - 1)
    ratio = clamped / declared
    out = {primary: clamped}
    for key, value in items[1:]:
        scaled = max(1, int(round(value * ratio)))
        if _is_pow2(value):
            scaled = 1 << (scaled.bit_length() - 1)
        out[key] = scaled
    return out


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default="zoo-reports")
    parser.add_argument("--max-scale", type=int, default=500)
    args = parser.parse_args(argv)

    from repro.scenarios import (
        compile_scenario,
        run_scenario,
        zoo_specs,
    )

    os.makedirs(args.out, exist_ok=True)
    worst = "A"
    order = {"A": 0, "B": 1, "C": 2, "F": 3}
    failed = []
    for name, spec in zoo_specs():
        override = clamp_scale(spec.scale, args.max_scale)
        compiled = compile_scenario(spec, scale=override)
        _, report, _ = run_scenario(compiled, validate=True)
        json_path = os.path.join(args.out, f"{name}.json")
        with open(json_path, "w", encoding="utf-8") as handle:
            handle.write(report.to_json())
        text_path = os.path.join(args.out, f"{name}.txt")
        with open(text_path, "w", encoding="utf-8") as handle:
            handle.write(str(report) + "\n")
        grade = report.overall_grade
        if order[grade] > order[worst]:
            worst = grade
        if not report.passed:
            failed.append(name)
        print(f"{name:24s} grade {grade}  -> {json_path}")
    print(f"worst grade: {worst}")
    if failed:
        print(f"FAILED scenarios: {', '.join(failed)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
