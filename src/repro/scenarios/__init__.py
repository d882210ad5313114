"""Declarative scenario layer: recipes → compiled workloads → graded
reports.

A *scenario* is a YAML/JSON recipe naming everything a workload needs —
node/edge types with bound generators, scale anchors, export settings,
validation thresholds.  The layer has four parts:

* :mod:`repro.scenarios.spec` — the stdlib-only recipe parser and the
  key registry (single source of truth for validation, the CLI's
  ``describe``, and the docs reference table);
* :mod:`repro.scenarios.compile` — lowers a recipe onto the core
  :class:`~repro.core.schema.Schema` / engine objects and derives the
  graded audit;
* :mod:`repro.scenarios.report` — the checks' pass/warn/fail grades
  aggregated into one overall grade, text + JSON rendering;
* :mod:`repro.scenarios.zoo` — the built-in recipe catalog.

End-to-end::

    from repro.scenarios import load_zoo, compile_scenario, run_scenario

    compiled = compile_scenario(load_zoo("social_network"),
                                scale={"Person": 2_000})
    graph, report, written = run_scenario(compiled, workers=2,
                                          out_dir="out/")
    print(report)            # graded: [pass]/[WARN]/[FAIL] + grade A–F
"""

from .compile import CompiledScenario, compile_scenario, run_scenario
from .report import Grade, GradedReport, run_graded
from .spec import (
    RECIPE_FIELDS,
    Field,
    ScenarioError,
    ScenarioSpec,
    load_recipe,
    parse_recipe_text,
    recipe_reference_rows,
    validate_recipe,
)
from .zoo import load_zoo, zoo_dir, zoo_names, zoo_specs

__all__ = [
    "CompiledScenario",
    "Field",
    "Grade",
    "GradedReport",
    "RECIPE_FIELDS",
    "ScenarioError",
    "ScenarioSpec",
    "compile_scenario",
    "load_recipe",
    "load_zoo",
    "parse_recipe_text",
    "recipe_reference_rows",
    "run_graded",
    "run_scenario",
    "validate_recipe",
    "zoo_dir",
    "zoo_names",
    "zoo_specs",
]
