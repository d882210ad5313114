#!/usr/bin/env python
"""Planted-recipe recall smoke: generate every planted zoo scenario at
smoke scale, run the baseline subgraph matcher over each plant, and
fail unless every injected instance is recovered exactly.

This is the CI ``plant-smoke`` job: at zero noise the matcher must
achieve **recall 1.0 with exact node-map membership**, with no
enumeration cut short, on every planted zoo recipe — the acceptance
bar docs/planting.md pins.  A matcher or injection regression that
loses a single instance exits 1 here.

Also re-plans every plant a second time and asserts the ground-truth
document is bit-identical — the plan is a pure function of
``(plants, node counts, base edge counts, seed)``, which is what makes
planted exports reproducible across workers, backends and shard sizes.

Usage::

    PYTHONPATH=src python tools/plant_smoke.py
    PYTHONPATH=src python tools/plant_smoke.py \
        --scenario fraud_ring_social --scale Person=400

Stdlib + numpy only, like every other CI tool here.
"""

from __future__ import annotations

import argparse
import sys

#: Planted zoo recipes and their smoke scales.
PLANTED_RECIPES = {
    "fraud_ring_social": {"Person": 400},
    "c2_pattern_infra_telemetry": {"Host": 300},
}


def check_recipe(name, scale):
    """Run one planted recipe; return the number of failures."""
    from repro.graphstats import verify_plants
    from repro.planting import plan_plants
    from repro.scenarios import compile_scenario, run_scenario
    from repro.scenarios.zoo import load_zoo

    compiled = compile_scenario(load_zoo(name), scale=scale)
    print(f"plant-smoke: {name!r} scale={compiled.scale} "
          f"seed={compiled.seed}")
    if not compiled.plants:
        print(f"  [MISMATCH] {name!r} declares no plants")
        return 1

    graph, _, _ = run_scenario(compiled, workers=1, validate=False)
    failures = 0
    try:
        plan = graph.plan
        world = graph.materialize()

        # Determinism: re-planning from the same inputs must produce
        # the identical ground-truth document.
        replan = plan_plants(
            list(compiled.plants), world.node_counts,
            dict(plan.edge_counts), compiled.seed,
        )
        same = replan.to_dict() == plan.to_dict()
        print(f"  [{'ok' if same else 'MISMATCH'}] "
              "ground truth is a pure function of the plan inputs")
        failures += 0 if same else 1

        report = verify_plants(world, plan)
        for plant_name, row in sorted(report["plants"].items()):
            ok = (row["recovered"] == row["instances"]
                  and not row["truncated"])
            status = "ok" if ok else "MISMATCH"
            print(f"  [{status}] {plant_name}: "
                  f"{row['recovered']}/{row['instances']} recovered, "
                  f"{row['matches']} matches"
                  f"{' (truncated)' if row['truncated'] else ''}, "
                  f"{row['rows_per_sec']:.0f} rows/s")
            failures += 0 if ok else 1
        if report["recall"] != 1.0:
            print(f"  [MISMATCH] overall recall "
                  f"{report['recall']:.3f} != 1.0")
            failures += 1
    finally:
        graph.cleanup()
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument(
        "--scenario", action="append", default=[],
        help="planted zoo recipe to check (default: all of "
             + ", ".join(sorted(PLANTED_RECIPES)) + ")",
    )
    parser.add_argument(
        "--scale", action="append", default=[], metavar="TYPE=COUNT",
        help="scale override applied to every checked recipe",
    )
    args = parser.parse_args(argv)

    override = {}
    for item in args.scale:
        key, _, value = item.partition("=")
        override[key] = int(value)

    names = args.scenario or sorted(PLANTED_RECIPES)
    failures = 0
    for name in names:
        scale = override or PLANTED_RECIPES.get(name)
        failures += check_recipe(name, scale)

    if failures:
        print(f"plant-smoke: {failures} failure(s)", file=sys.stderr)
        return 1
    print("plant-smoke: every planted instance recovered exactly")
    return 0


if __name__ == "__main__":
    sys.exit(main())
