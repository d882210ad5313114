"""Declarative scenario layer: recipes → compiled workloads → graded
reports.

A *scenario* is a YAML/JSON recipe naming everything a workload needs —
node/edge types with bound generators, scale anchors, export settings,
validation thresholds.  The layer has three parts:

* :mod:`repro.scenarios.spec` — the stdlib-only recipe parser and the
  key registry (single source of truth for validation, the CLI's
  ``describe``, and the docs reference table);
* :mod:`repro.scenarios.compile` — lowers a recipe onto the core
  :class:`~repro.core.schema.Schema` / engine objects and derives the
  graded audit, which :func:`~repro.validation.run_graded` runs into a
  :class:`~repro.validation.GradedReport` (re-exported here);
* :mod:`repro.scenarios.zoo` — the built-in recipe catalog.

End-to-end::

    from repro.scenarios import load_zoo, compile_scenario, run_scenario

    compiled = compile_scenario(load_zoo("social_network"),
                                scale={"Person": 2_000})
    graph, report, written = run_scenario(compiled, out_dir="out/")
    print(report)            # graded: [pass]/[WARN]/[FAIL] + grade A–F
"""

from ..validation import Grade, GradedReport, run_graded
from .compile import CompiledScenario, compile_scenario, run_scenario
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
