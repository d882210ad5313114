"""Tests for the declarative scenario layer.

Covers the stdlib recipe parser, recipe validation error messages, the
compiler lowering, the graded-report grading rules (JSON pinned against
a golden), the zoo (every recipe compiles and runs at smoke scale with
byte-identical exports in memory and out of core), and the doc/spec
sync contract for ``docs/scenarios.md``.
"""

from __future__ import annotations

import filecmp
import json
import os

import pytest

from repro.cli import main
from repro.scenarios import (
    Grade,
    GradedReport,
    ScenarioError,
    ScenarioSpec,
    compile_scenario,
    load_zoo,
    parse_recipe_text,
    recipe_reference_rows,
    run_scenario,
    validate_recipe,
    zoo_names,
)
from repro.scenarios.spec import RECIPE_FIELDS
from repro.validation import CheckResult

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

TINY_RECIPE = """
scenario: tiny
description: golden-report fixture
seed: 3
nodes:
  Person:
    properties:
      country:
        generator: categorical
        params:
          values: [aa, bb, cc]
          weights: [0.5, 0.3, 0.2]
      age: {dtype: long, generator: uniform_int,
            params: {low: 18, high: 80}}
edges:
  knows:
    tail: Person
    head: Person
    structure:
      generator: erdos_renyi_m
      params: {edges_per_node: 3}
    correlation:
      property: country
      joint: {$homophily: {affinity: 0.8}}
scale: {Person: 300}
validation:
  degrees:
    knows: {max_mean: 10, warn_max_mean: 5}
"""


class TestParser:
    def test_scalars(self):
        doc = parse_recipe_text(
            "a: 1\nb: 2.5\nc: true\nd: null\ne: hello\nf: 'q: x'"
        )
        assert doc == {"a": 1, "b": 2.5, "c": True, "d": None,
                       "e": "hello", "f": "q: x"}

    def test_nested_and_lists(self):
        doc = parse_recipe_text(
            "outer:\n"
            "  inner:\n"
            "    xs: [1, 2, 3]\n"
            "  block:\n"
            "    - alpha\n"
            "    - [0.5, 0.5]\n"
        )
        assert doc["outer"]["inner"]["xs"] == [1, 2, 3]
        assert doc["outer"]["block"] == ["alpha", [0.5, 0.5]]

    def test_inline_mapping_nested(self):
        doc = parse_recipe_text(
            "s: {generator: grid, params: {wrap: false, k: [1, 2]}}"
        )
        assert doc["s"]["params"] == {"wrap": False, "k": [1, 2]}

    def test_multiline_inline_brackets(self):
        doc = parse_recipe_text(
            "xs: [a, b,\n     c, d]\n"
            "m: {p: 1,\n    q: 2}\n"
        )
        assert doc["xs"] == ["a", "b", "c", "d"]
        assert doc["m"] == {"p": 1, "q": 2}

    def test_comments_and_blanks(self):
        doc = parse_recipe_text(
            "# leading comment\n\na: 1  # trailing\n\nb: '#notcomment'\n"
        )
        assert doc == {"a": 1, "b": "#notcomment"}

    def test_hash_without_space_is_not_a_comment(self):
        # YAML semantics: '#' starts a comment only after whitespace.
        assert parse_recipe_text("v: a#b") == {"v": "a#b"}

    def test_inline_mapping_duplicate_key(self):
        with pytest.raises(ScenarioError, match="duplicate key"):
            parse_recipe_text("m: {a: 1, a: 2}")

    def test_json_passthrough(self):
        assert parse_recipe_text('{"a": [1, 2]}') == {"a": [1, 2]}

    def test_constructor_keys_survive(self):
        doc = parse_recipe_text(
            "d: {$zipf: {exponent: 1.2, max: 40}}"
        )
        assert doc["d"] == {"$zipf": {"exponent": 1.2, "max": 40}}

    def test_cardinality_scalar_not_a_key(self):
        assert parse_recipe_text('c: "*..*"') == {"c": "*..*"}

    @pytest.mark.parametrize("text, fragment", [
        ("", "empty recipe"),
        ("a: [1, 2", "unclosed bracket"),
        ("\ta: 1", "tabs are not allowed"),
        ("a: 1\na: 2", "duplicate key"),
        ("a: 'oops", "unterminated string"),
        ("key without colon", "expected 'key: value'"),
    ])
    def test_errors(self, text, fragment):
        with pytest.raises(ScenarioError, match=fragment):
            parse_recipe_text(text)


class TestValidation:
    def _base(self):
        return parse_recipe_text(TINY_RECIPE)

    def test_valid(self):
        validate_recipe(self._base())

    def test_missing_nodes(self):
        with pytest.raises(ScenarioError,
                           match="missing required key 'nodes'"):
            validate_recipe({"scenario": "x", "scale": {}})

    def test_unknown_key_has_path_and_suggestions(self):
        recipe = self._base()
        recipe["edges"]["knows"]["struct"] = {}
        with pytest.raises(
            ScenarioError,
            match=r"edges\.knows: unknown key 'struct'",
        ):
            validate_recipe(recipe)

    def test_bad_cardinality_choice(self):
        recipe = self._base()
        recipe["edges"]["knows"]["cardinality"] = "2..2"
        with pytest.raises(ScenarioError, match="cardinality"):
            validate_recipe(recipe)

    def test_undeclared_endpoint(self):
        recipe = self._base()
        recipe["edges"]["knows"]["head"] = "Ghost"
        with pytest.raises(
            ScenarioError,
            match="'Ghost' is not a declared node type",
        ):
            validate_recipe(recipe)

    def test_scale_names_unknown_type(self):
        recipe = self._base()
        recipe["scale"]["Nope"] = 10
        with pytest.raises(ScenarioError,
                           match="'Nope' names no node or edge type"):
            validate_recipe(recipe)

    def test_scale_rejects_nonpositive(self):
        recipe = self._base()
        recipe["scale"]["Person"] = 0
        with pytest.raises(ScenarioError, match="positive int"):
            validate_recipe(recipe)

    def test_type_mismatch(self):
        recipe = self._base()
        recipe["seed"] = "lots"
        with pytest.raises(ScenarioError,
                           match="seed: expected int"):
            validate_recipe(recipe)

    @pytest.mark.parametrize("group", ["joint_ks", "marginal_tv"])
    def test_inverted_band_rejected(self, group):
        recipe = self._base()
        recipe["validation"][group] = {"warn": 0.5, "fail": 0.1}
        with pytest.raises(
            ScenarioError,
            match=rf"validation\.{group}: warn threshold 0\.5 is "
                  r"looser than fail threshold 0\.1",
        ):
            validate_recipe(recipe)
        # The registry default counts as the other end of the band.
        recipe["validation"][group] = {"fail": 0.01}
        with pytest.raises(ScenarioError,
                           match=rf"validation\.{group}: warn"):
            validate_recipe(recipe)
        recipe["validation"][group] = {"warn": 0.1, "fail": 0.1}
        validate_recipe(recipe)


class TestCompiler:
    def test_unknown_property_generator(self):
        recipe = parse_recipe_text(TINY_RECIPE)
        recipe["nodes"]["Person"]["properties"]["age"]["generator"] = \
            "nope"
        with pytest.raises(ScenarioError,
                           match="unknown property generator 'nope'"):
            compile_scenario(recipe)

    def test_unknown_structure_generator(self):
        recipe = parse_recipe_text(TINY_RECIPE)
        recipe["edges"]["knows"]["structure"]["generator"] = "nope"
        with pytest.raises(ScenarioError,
                           match="unknown structure generator 'nope'"):
            compile_scenario(recipe)

    def test_unknown_constructor(self):
        recipe = parse_recipe_text(TINY_RECIPE)
        recipe["edges"]["knows"]["correlation"]["joint"] = {
            "$teleport": {}
        }
        with pytest.raises(ScenarioError,
                           match=r"unknown constructor \$teleport"):
            compile_scenario(recipe)

    def test_bipartite_homophily_domain_mismatch(self):
        recipe = parse_recipe_text("""
scenario: mismatch
nodes:
  U:
    properties:
      g: {generator: categorical,
          params: {values: [a, b, c], weights: [1, 1, 1]}}
  V:
    properties:
      g: {generator: categorical,
          params: {values: [a, b], weights: [1, 1]}}
edges:
  e:
    tail: U
    head: V
    structure:
      generator: bipartite_configuration
      params:
        tail_distribution: {$zipf: {exponent: 1.2, max: 5}}
        head_distribution: {$zipf: {exponent: 1.2, max: 5}}
        head_nodes: 50
    correlation:
      property: g
      head_property: g
      joint: {$homophily: {affinity: 0.8}}
scale: {U: 100, V: 50}
""")
        with pytest.raises(ScenarioError,
                           match="tail and head categories differ"):
            compile_scenario(recipe)

    def test_homophily_needs_categorical(self):
        recipe = parse_recipe_text(TINY_RECIPE)
        recipe["edges"]["knows"]["correlation"]["property"] = "age"
        with pytest.raises(ScenarioError,
                           match="must be a 'categorical'"):
            compile_scenario(recipe)

    @pytest.mark.parametrize("validation, message", [
        ({"unique": ["Person.nope"]},
         r"validation\.unique\[0\]: node type 'Person' has no "
         r"property 'nope'"),
        ({"unique": ["Person.age", "Nope.x"]},
         r"validation\.unique\[1\]: unknown node type 'Nope'"),
        ({"unique": ["Person"]},
         r"validation\.unique\[0\]: node type 'Person' has no "
         r"property ''"),
        ({"degrees": {"nope": {"min_mean": 1}}},
         r"validation\.degrees\.nope: unknown edge type 'nope'"),
    ])
    def test_dangling_validation_reference(self, validation, message):
        recipe = parse_recipe_text(TINY_RECIPE)
        recipe["validation"] = validation
        with pytest.raises(ScenarioError, match=message):
            compile_scenario(recipe)

    def test_no_scale_anchor(self):
        recipe = parse_recipe_text(TINY_RECIPE)
        recipe["scale"] = {}
        # An empty scale block fails at compile time, not parse time.
        with pytest.raises(ScenarioError, match="no scale anchors"):
            compile_scenario(recipe)

    def test_scale_and_seed_overrides(self):
        compiled = compile_scenario(
            TINY_RECIPE, scale={"Person": 50}, seed=99
        )
        assert compiled.scale == {"Person": 50}
        assert compiled.seed == 99

    def test_lowered_schema_shape(self):
        compiled = compile_scenario(TINY_RECIPE)
        schema = compiled.schema
        assert sorted(schema.node_types) == ["Person"]
        knows = schema.edge_type("knows")
        assert knows.structure.name == "erdos_renyi_m"
        assert knows.correlation.tail_property == "country"
        assert knows.correlation.values == ("aa", "bb", "cc")

    def test_recipe_matches_imperative_run(self):
        """A recipe and the equivalent hand-built schema generate the
        exact same graph."""
        import numpy as np

        from repro.core import (
            EdgeType,
            GeneratorSpec,
            GraphGenerator,
            NodeType,
            PropertyDef,
            Schema,
        )

        schema = Schema(
            node_types=[NodeType("Person", properties=[
                PropertyDef("age", "long", GeneratorSpec(
                    "uniform_int", {"low": 18, "high": 80})),
            ])],
            edge_types=[EdgeType(
                "knows", tail_type="Person", head_type="Person",
                structure=GeneratorSpec(
                    "erdos_renyi_m", {"edges_per_node": 3}),
            )],
        )
        imperative = GraphGenerator(
            schema, {"Person": 200}, seed=5
        ).generate()

        recipe = """
scenario: same
seed: 5
nodes:
  Person:
    properties:
      age: {dtype: long, generator: uniform_int,
            params: {low: 18, high: 80}}
edges:
  knows:
    tail: Person
    head: Person
    structure: {generator: erdos_renyi_m,
                params: {edges_per_node: 3}}
scale: {Person: 200}
"""
        declarative, _, _ = run_scenario(compile_scenario(recipe))
        assert np.array_equal(
            imperative.edges("knows").tails,
            declarative.edges("knows").tails,
        )
        assert np.array_equal(
            imperative.node_property("Person", "age").values,
            declarative.node_property("Person", "age").values,
        )


class TestGrading:
    def _report(self, grades):
        report = GradedReport("g")
        for i, grade in enumerate(grades):
            report.add(CheckResult(f"c{i}", grade))
        return report

    def test_overall_grades(self):
        assert self._report([Grade.PASS] * 4).overall_grade == "A"
        assert self._report(
            [Grade.PASS] * 4 + [Grade.WARN]
        ).overall_grade == "B"
        assert self._report(
            [Grade.PASS, Grade.WARN, Grade.WARN]
        ).overall_grade == "C"
        assert self._report(
            [Grade.PASS, Grade.FAIL]
        ).overall_grade == "F"

    def test_passed_tracks_failures_only(self):
        assert self._report([Grade.WARN]).passed
        assert not self._report([Grade.FAIL]).passed

    def test_graded_check_warn_band(self):
        """One recipe band reaches all three grades: the tiny graph's
        mean degree is exactly 6."""
        def grade(bounds):
            recipe = parse_recipe_text(TINY_RECIPE)
            recipe["validation"]["degrees"]["knows"] = bounds
            _, report, _ = run_scenario(compile_scenario(recipe))
            return report.results[-1]

        warn = grade({"max_mean": 10, "warn_max_mean": 5})
        assert warn.grade is Grade.WARN and warn.passed
        assert warn.detail == "mean 6.00 > 5"
        ok = grade({"max_mean": 10, "warn_max_mean": 7})
        assert ok.grade is Grade.PASS
        assert ok.detail.startswith("mean 6.00, max ")
        bad = grade({"max_mean": 5.5, "warn_max_mean": 5})
        assert bad.grade is Grade.FAIL and not bad.passed
        assert bad.detail == "mean 6.00 > 5.5"
        assert warn.metric == ok.metric == bad.metric == 6.0

    def test_audit_measures_each_check_once(self, monkeypatch):
        """Count-based: one ``run_graded`` computes the observed joint
        once and reads each marginal column once (twice each when a
        band was two checks)."""
        from collections import Counter

        from repro.core.result import PropertyGraph
        from repro.scenarios import run_graded

        compiled = compile_scenario(load_zoo("social_network"),
                                    scale={"Person": 300})
        graph, _, _ = run_scenario(compiled, validate=False)
        calls = Counter()
        observed_joint = PropertyGraph.observed_joint
        node_property = PropertyGraph.node_property

        def counted_joint(self, edge_name):
            calls[f"joint:{edge_name}"] += 1
            calls["inside_joint"] += 1
            try:
                return observed_joint(self, edge_name)
            finally:
                calls["inside_joint"] -= 1

        def counted_read(self, type_name, prop_name):
            if not calls["inside_joint"]:
                calls[f"read:{type_name}.{prop_name}"] += 1
            return node_property(self, type_name, prop_name)

        monkeypatch.setattr(
            PropertyGraph, "observed_joint", counted_joint)
        monkeypatch.setattr(
            PropertyGraph, "node_property", counted_read)
        report = run_graded(graph, compiled.graded_checks)
        banded = {
            r.name: r for r in report.results
            if r.name.startswith(("joint[", "marginal["))
        }
        assert sorted(banded) == [
            "joint[knows]", "marginal[Person.country]",
            "marginal[Person.sex]",
        ]
        assert all(r.metric is not None for r in banded.values())
        assert calls["joint:knows"] == 1
        assert calls["read:Person.country"] == 1
        assert calls["read:Person.sex"] == 1

    def test_text_rendering(self):
        report = GradedReport("demo", seed=1, scale={"N": 5})
        report.add(CheckResult("a", Grade.FAIL, "broken"))
        text = str(report)
        assert "scenario 'demo'" in text
        assert "[FAIL] a (broken)" in text
        assert "grade F" in text

    @pytest.mark.parametrize("kernels", ["compiled", "numpy"])
    def test_golden_report_json(self, kernels, monkeypatch):
        """The graded-report JSON for the tiny fixture is pinned, and
        does not depend on which kernels generated the graph."""
        if kernels == "numpy":
            monkeypatch.setenv("REPRO_NO_CKERNEL", "1")
        _, report, _ = run_scenario(compile_scenario(TINY_RECIPE))
        golden_path = os.path.join(GOLDEN_DIR, "scenario_report.json")
        with open(golden_path, encoding="utf-8") as handle:
            golden = json.load(handle)
        assert report.to_dict() == golden


SMOKE_SCALE = {
    "c2_pattern_infra_telemetry": {"Host": 400},
    "citation_dag": {"Paper": 400},
    "fraud_ring_social": {"Person": 500},
    "infra_telemetry": {"Host": 400},
    "ldbc_attributed": {"Person": 500},
    "lfr_benchmark": {"Node": 500},
    "message_cascades": {"Message": 500},
    "recommender_bipartite": {"User": 400},
    "social_network": {"Person": 400},
    "web_graph_rmat": {"Page": 512},
}


class TestZoo:
    def test_zoo_has_at_least_eight(self):
        assert len(zoo_names()) >= 8

    def test_every_zoo_recipe_has_a_smoke_scale(self):
        # New recipes must register a smoke scale so the matrix below
        # keeps covering them.
        assert set(SMOKE_SCALE) == set(zoo_names())

    @pytest.mark.parametrize("name", sorted(SMOKE_SCALE))
    def test_compiles(self, name):
        compiled = compile_scenario(load_zoo(name))
        assert compiled.name == name
        assert compiled.graded_checks, "every recipe must carry checks"

    @pytest.mark.parametrize("name", sorted(SMOKE_SCALE))
    def test_smoke_run_in_memory_and_sharded_byte_identical(
        self, name, tmp_path
    ):
        """The in-memory run and a 64-row, 2-worker out-of-core run
        stream byte-identical exports."""
        compiled = compile_scenario(load_zoo(name), scale=SMOKE_SCALE[name])
        runs = {
            "memory": {},
            "sharded": {"shard_rows": 64, "workers": 2,
                        "spool_dir": str(tmp_path / "spool")},
        }
        outputs = {}
        for label, options in runs.items():
            out = tmp_path / label
            graph, report, written = run_scenario(
                compiled, out_dir=str(out), **options
            )
            assert written, "smoke run must export files"
            assert report is not None
            assert report.results, "graded report must have checks"
            assert not any(
                r.grade is Grade.FAIL for r in report.results
            ), f"{name}: {report}"
            outputs[label] = out
        memory, sharded = outputs["memory"], outputs["sharded"]
        files = sorted(
            p.relative_to(memory) for p in memory.rglob("*") if p.is_file()
        )
        assert files == sorted(
            p.relative_to(sharded) for p in sharded.rglob("*") if p.is_file()
        )
        for rel in files:
            assert filecmp.cmp(
                memory / rel, sharded / rel, shallow=False
            ), f"{name}: {rel} differs between in-memory and sharded"


class TestCli:
    def test_list_names_every_zoo_recipe(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for name in zoo_names():
            assert name in out

    def test_describe_prints_recipe_keys(self, capsys):
        assert main(["scenario", "describe", "social_network"]) == 0
        out = capsys.readouterr().out
        for field in RECIPE_FIELDS:
            assert field.path in out

    def test_run_writes_report_json(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([
            "scenario", "run", "social_network",
            "--scale", "Person=300", "--out", str(out),
        ])
        assert code == 0
        report_path = out / "validation_report.json"
        assert report_path.exists()
        payload = json.loads(report_path.read_text())
        assert payload["scenario"] == "social_network"
        assert payload["grade"] in ("A", "B", "C")
        assert {c["grade"] for c in payload["checks"]} <= {
            "pass", "warn", "fail"
        }
        assert "grade" in capsys.readouterr().out

    def test_run_recipe_path(self, tmp_path, capsys):
        recipe_path = tmp_path / "tiny.yaml"
        recipe_path.write_text(TINY_RECIPE)
        code = main([
            "scenario", "run", str(recipe_path),
            "--report-json", str(tmp_path / "r.json"),
        ])
        assert code == 0
        assert (tmp_path / "r.json").exists()

    def test_validate_subcommand(self, capsys):
        code = main([
            "scenario", "validate", "web_graph_rmat",
            "--scale", "Page=256",
        ])
        assert code == 0
        assert "grade" in capsys.readouterr().out

    def test_unknown_scenario_message(self):
        with pytest.raises(SystemExit, match="unknown scenario"):
            main(["scenario", "run", "does_not_exist"])

    def test_missing_recipe_file_is_clean(self):
        with pytest.raises(SystemExit, match="scenario error"):
            main(["scenario", "run", "/nonexistent/x.yaml"])

    def test_invalid_recipe_file_is_clean(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("scenario: x\nnodes: {N: {}}\n")  # no scale
        with pytest.raises(SystemExit,
                           match="missing required key 'scale'"):
            main(["scenario", "run", str(bad)])

    def test_dangling_validation_reference_is_clean(self, tmp_path):
        """Fails at compile: one line, nothing generated or written."""
        import subprocess
        import sys

        bad = tmp_path / "bad.yaml"
        bad.write_text(TINY_RECIPE + "  unique: [Person.nope]\n")
        out = tmp_path / "out"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", "scenario", "run",
             str(bad), "--out", str(out)],
            capture_output=True, text=True, env=env,
        )
        assert done.returncode == 1
        assert done.stderr == (
            "scenario error: validation.unique[0]: node type 'Person' "
            "has no property 'nope'\n"
        )
        assert not out.exists()


class TestDocSync:
    """docs/scenarios.md must embed the spec-generated key table."""

    def _docs_path(self):
        return os.path.join(
            os.path.dirname(__file__), os.pardir, "docs",
            "scenarios.md",
        )

    def test_reference_table_in_sync(self):
        from repro.scenarios.spec import recipe_reference_markdown

        with open(self._docs_path(), encoding="utf-8") as handle:
            docs = handle.read()
        table = recipe_reference_markdown()
        assert table in docs, (
            "docs/scenarios.md is out of sync with "
            "repro/scenarios/spec.py; regenerate with: "
            "PYTHONPATH=src python -m repro.scenarios.spec"
        )

    def test_rows_cover_every_field(self):
        rows = recipe_reference_rows()
        assert len(rows) == len(RECIPE_FIELDS)
        paths = [row[0] for row in rows]
        assert paths == [field.path for field in RECIPE_FIELDS]


class TestSpecHelpers:
    def test_threshold_defaults_and_overrides(self):
        spec = ScenarioSpec.from_text(TINY_RECIPE)
        assert spec.threshold("joint_ks", "fail") == 0.6
        spec2 = ScenarioSpec.from_text(
            TINY_RECIPE + "\n"  # appended override block
        )
        assert spec2.threshold("marginal_tv", "warn") == 0.05

    def test_export_defaults(self):
        spec = ScenarioSpec.from_text(TINY_RECIPE)
        assert spec.export_formats == ["csv"]
        assert spec.export_chunk_size == 65536
        assert spec.export_compress is False
