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
from pathlib import Path

import pytest

from repro.cli import main
from repro.core import Cardinality
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

    def test_block_mapping_duplicate_key_names_its_line(self):
        text = "nodes:\n  T: {}\n  T: {}\n"
        with pytest.raises(ScenarioError,
                           match="line 3: duplicate key 'T'"):
            parse_recipe_text(text)

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


    @pytest.mark.parametrize("text, expected", [
        ("1..1", Cardinality.ONE_TO_ONE),
        ("1..*", Cardinality.ONE_TO_MANY),
        ("*..*", Cardinality.MANY_TO_MANY),
    ])
    def test_cardinalities(self, text, expected):
        recipe = parse_recipe_text(TINY_RECIPE)
        recipe["edges"]["knows"]["cardinality"] = text
        edge = compile_scenario(recipe).schema.edge_type("knows")
        assert edge.cardinality is expected

    @pytest.mark.parametrize("directed", [True, False])
    def test_directed_edge(self, directed):
        recipe = parse_recipe_text(TINY_RECIPE)
        recipe["edges"]["knows"]["directed"] = directed
        edge = compile_scenario(recipe).schema.edge_type("knows")
        assert edge.directed is directed

    def test_dependencies_lowered(self):
        """``depends_on`` names a sibling property on a node type and
        ``tail.`` / ``head.`` properties on an edge type."""
        recipe = parse_recipe_text(TINY_RECIPE)
        country = recipe["nodes"]["Person"]["properties"]["country"]
        country["depends_on"] = ["age"]
        recipe["edges"]["knows"]["properties"] = {"gap": {
            "dtype": "long", "generator": "after_dependency",
            "params": {"min_gap": 1},
            "depends_on": ["tail.age", "head.age"],
        }}
        schema = compile_scenario(recipe).schema
        assert schema.node_type("Person").property_named(
            "country").depends_on == ("age",)
        assert schema.edge_type("knows").property_named(
            "gap").depends_on == ("tail.age", "head.age")

    def test_list_params_reach_the_generator(self):
        spec = compile_scenario(TINY_RECIPE).schema.node_type(
            "Person").property_named("country").generator
        assert spec.params["values"] == ["aa", "bb", "cc"]
        assert spec.params["weights"] == [0.5, 0.3, 0.2]

    def test_live_objects_in_params_pass_through(self):
        """A recipe dict built in Python may hold live objects in
        ``params``; the lowered generator receives those very objects."""
        from repro.stats import Zipf

        recipe = _bipartite_recipe()
        degrees = recipe["edges"]["likes"]["structure"]["params"][
            "tail_distribution"]
        assert isinstance(degrees, Zipf)
        structure = compile_scenario(recipe).schema.edge_type(
            "likes").structure
        assert structure.params["tail_distribution"] is degrees
        assert structure.params["head_distribution"] is degrees

    def test_recipe_generates_the_graph(self):
        from repro.core import GraphGenerator

        compiled = compile_scenario(MINIMAL_RECIPE)
        graph = GraphGenerator(
            compiled.schema, compiled.scale, seed=compiled.seed
        ).generate()
        assert graph.num_nodes("Person") == 100
        ages = graph.node_property("Person", "age").values
        assert ages.min() >= 18
        assert ages.max() < 99


class TestRecipeHoles:
    """A bad value where a recipe is validated or lowered is one
    ``ScenarioError`` naming its dotted recipe path — never an
    ``AttributeError``, ``TypeError``, ``OverflowError`` or
    ``MemoryError`` from deep inside the compiler."""

    @pytest.mark.parametrize("name, path, value, message", [
        ("fraud_ring_social", "nodes.Person.properties", None,
         "nodes.Person.properties: expected map, got NoneType"),
        ("fraud_ring_social", "nodes.Person.properties.country.params",
         None, "nodes.Person.properties.country.params: expected map"),
        ("fraud_ring_social",
         "edges.knows.properties.creationDate.depends_on", [0],
         "edges.knows.properties.creationDate.depends_on: expected "
         "list[str]"),
        ("fraud_ring_social",
         "edges.knows.properties.creationDate.generator", [],
         "edges.knows.properties.creationDate.generator: expected str"),
        ("infra_telemetry",
         "edges.emits.structure.params.degree_distribution.$zipf.max",
         float("inf"),
         "edges.emits.structure.params.degree_distribution.$zipf.max: "
         "cannot convert float infinity to integer"),
        ("infra_telemetry",
         "edges.emits.structure.params.degree_distribution.$zipf"
         ".exponent", 0,
         "edges.emits.structure.params.degree_distribution.$zipf: "
         "exponent s must be positive"),
        ("fraud_ring_social",
         "nodes.Person.properties.country.params.values.$dataset.name",
         [], "nodes.Person.properties.country.params.values.$dataset: "
             "unknown dataset"),
        ("fraud_ring_social",
         "edges.knows.correlation.joint.$homophily.affinity", "x",
         "edges.knows.correlation.joint.$homophily.affinity: could not "
         "convert string to float"),
        ("recommender_bipartite",
         "nodes.User.properties.genre.params.weights", 0,
         "nodes.User.properties.genre.params: expected a non-empty list "
         "of finite nonnegative weights"),
        ("fraud_ring_social",
         "nodes.Person.properties.country.params.values.$dataset.limit",
         0, "nodes.Person.properties.country.params: values must be a "
            "non-empty list"),
        ("c2_pattern_infra_telemetry", "plants.c2_star.template.size",
         10**12, "plants.c2_star: 2 disjoint copies of a "
                 "1000000000000-node template need 2000000000000 Host "
                 "nodes; the scale has 1500"),
        ("c2_pattern_infra_telemetry", "plants.c2_star.count", None,
         "plants.c2_star.count: expected int, got NoneType"),
    ])
    def test_one_error_with_the_path(self, name, path, value, message):
        recipe = load_zoo(name).raw
        *parents, last = path.split(".")
        node = recipe
        for key in parents:
            node = node[key]
        node[last] = value
        with pytest.raises(ScenarioError) as excinfo:
            compile_scenario(recipe)
        assert message in str(excinfo.value)


def _tree_digests(directory):
    """``{file name: sha256}`` of an export directory."""
    import hashlib

    return {
        entry.name: hashlib.sha256(entry.read_bytes()).hexdigest()
        for entry in sorted(Path(directory).iterdir())
    }


TINY_SOCIAL_RECIPE = """
scenario: tiny_social
seed: 7
nodes:
  Person:
    properties:
      country:
        generator: categorical
        params: {values: [India, China, Poland],
                 weights: [0.4, 0.45, 0.15]}
      creationDate: {dtype: date, generator: date_range,
                     params: {start: 1262304000, end: 1483228800}}
  Message:
    properties:
      topic: {generator: categorical,
              params: {values: [sports, news, music]}}
edges:
  knows:
    tail: Person
    head: Person
    structure: {generator: erdos_renyi_m, params: {edges_per_node: 10}}
    correlation:
      property: country
      joint: {$homophily: {affinity: 0.5}}
      values: [India, China, Poland]
    properties:
      creationDate:
        dtype: date
        generator: after_dependency
        params: {min_gap: 1}
        depends_on: [tail.creationDate, head.creationDate]
  creates:
    tail: Person
    head: Message
    directed: true
    cardinality: "1..*"
    structure:
      generator: one_to_many
      params:
        degree_distribution: {$zipf: {exponent: 1.2, max: 40}}
    properties:
      creationDate:
        dtype: date
        generator: after_dependency
        params: {min_gap: 1}
        depends_on: [tail.creationDate]
scale: {Person: 2000}
"""

MINIMAL_RECIPE = """
scenario: tiny
seed: 4
nodes:
  Person:
    properties:
      age: {dtype: long, generator: uniform_int,
            params: {low: 18, high: 99}}
edges:
  knows:
    tail: Person
    head: Person
    structure: {generator: erdos_renyi_m, params: {edges_per_node: 4}}
scale: {Person: 100}
"""


def _bipartite_recipe():
    """A recipe dict holding live objects: a ``Zipf`` degree
    distribution in ``params`` and an ndarray behind ``$matrix``."""
    import numpy as np

    from repro.stats import Zipf

    genre = {"generator": "categorical",
             "params": {"values": ["a", "b"], "weights": [0.5, 0.5]}}
    degrees = Zipf(1.2, 6)
    return {
        "scenario": "rec",
        "seed": 6,
        "nodes": {"User": {"properties": {"genre": genre}},
                  "Item": {"properties": {"genre": genre}}},
        "edges": {"likes": {
            "tail": "User", "head": "Item", "directed": True,
            "structure": {
                "generator": "bipartite_configuration",
                "params": {
                    "tail_distribution": degrees,
                    "head_distribution": degrees,
                    "tail_offset": 1, "head_offset": 1,
                    "head_nodes": 80,
                },
            },
            "correlation": {
                "property": "genre", "head_property": "genre",
                "joint": {"$matrix": np.array([[0.45, 0.05],
                                               [0.05, 0.45]])},
            },
        }},
        "scale": {"User": 120, "Item": 80},
    }


class TestCensus:
    """Recipe twins of the three examples of the curly-brace schema
    language that recipes replaced export its exact bytes.  The digests
    were recorded from that language's exports before it was deleted;
    they are never regenerated from the recipes."""

    DIGESTS = {
        "tiny_social": {
            "Message.topic.csv": "f615a998c9c88a7bee9d1b739c6c7dec"
                                 "265148371526acfbca9cc91e499638e5",
            "Person.country.csv": "2dd34374d4516da3143a036498676fe7"
                                  "807a07fb583919aa7a837ec2d6b65448",
            "Person.creationDate.csv": "e2c7b2d0a0a42750066b48097de007af"
                                       "48791cb432a20a03448759323abdf06c",
            "creates.creationDate.csv": "194a3f3dc9342a30c9b01cde68d192c5"
                                        "a15aca3339309a3210632311cb52e248",
            "creates.csv": "6565ef7ca69048d52b63f1a59c93a131"
                           "66ee668798c8a73b476fe75472862bed",
            "knows.creationDate.csv": "96c2fa8d66b0b6619d20c16b736d291f"
                                      "1fe04f9175712803e57d94fa20f50b3d",
            "knows.csv": "516bd23191f0e610f96da643146a2af6"
                         "769dd7f585736dc26d28274167081a6e",
            "manifest.json": "a522092677ddc87591f9722cee4e7533"
                             "9cb9fc12a37ef9d70b039e216762d023",
        },
        "minimal": {
            "Person.age.csv": "2f4df2bf99aa47b05e3b0b0fab16894e"
                              "9ddd89e72446e69b880035f90cd9f46a",
            "knows.csv": "aa4180a01663c7efe3f8f3557b56de62"
                         "6898aac81806cfb90881230bdc034829",
            "manifest.json": "aa8210b58a6740a664da87f66630091d"
                             "73ff7f4133deee0710b3043285bf349b",
        },
        "bipartite": {
            "Item.genre.csv": "4daf849d1be4da6ed6b276006400482"
                              "657bbb49d330bb4b44ce4b372a5de00d9",
            "User.genre.csv": "007c7c92bb5dd1194d09abb84b96e7dd"
                              "f918cb3d95eb312601cd029b9983e7a6",
            "likes.csv": "4e924081978c203eb224cc59d906a628"
                         "44df710c43f696b1ba4f3498f863b936",
            "manifest.json": "b722393cf6946e727aa0789b359fda63"
                             "098455eaf241bfc8bcf927edd7033d0d",
        },
    }

    @pytest.mark.parametrize("kernels", ["on", "off"])
    @pytest.mark.parametrize("case", ["tiny_social", "minimal",
                                      "bipartite"])
    def test_recipe_twin_exports_the_recorded_bytes(
        self, case, kernels, tmp_path, monkeypatch
    ):
        if kernels == "off":
            monkeypatch.setenv("REPRO_NO_CKERNEL", "1")
        recipe = {"tiny_social": TINY_SOCIAL_RECIPE,
                  "minimal": MINIMAL_RECIPE}.get(case) or _bipartite_recipe()
        run_scenario(compile_scenario(recipe), out_dir=tmp_path,
                     validate=False)
        assert _tree_digests(tmp_path) == self.DIGESTS[case]

    def test_generate_is_scenario_run(self, tmp_path, capsys):
        """``generate`` and ``scenario run`` are one command: the same
        tree, graded report included, and the same summary line."""
        lines = []
        for command, out in ((["generate"], "a"),
                             (["scenario", "run"], "b")):
            assert main(command + [
                "social_network", "--scale", "Person=500",
                "--out", str(tmp_path / out),
            ]) == 0
            lines.append(capsys.readouterr().out.splitlines()[0])
        assert lines[0] == lines[1]
        assert lines[0].startswith("scenario 'social_network': ")
        comparison = filecmp.dircmp(tmp_path / "a", tmp_path / "b")
        assert comparison.left_list == comparison.right_list
        assert "validation_report.json" in comparison.left_list
        assert not comparison.diff_files and not comparison.funny_files


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

    def _failing_recipe(self, tmp_path):
        recipe_path = tmp_path / "failing.yaml"
        recipe_path.write_text(TINY_RECIPE.replace(
            "max_mean: 10, warn_max_mean: 5", "max_mean: 1"
        ))
        return str(recipe_path)

    def test_generate_failing_grade_exits_one(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["generate", self._failing_recipe(tmp_path),
                     "--out", str(out)])
        assert code == 1
        payload = json.loads(
            (out / "validation_report.json").read_text()
        )
        assert "fail" in {c["grade"] for c in payload["checks"]}

    def test_generate_no_validate_skips_the_audit(self, tmp_path):
        out = tmp_path / "out"
        code = main(["generate", self._failing_recipe(tmp_path),
                     "--out", str(out), "--no-validate"])
        assert code == 0
        assert (out / "knows.csv").exists()
        assert not (out / "validation_report.json").exists()

    def test_generate_without_out_writes_no_files(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["generate", "social_network",
                     "--scale", "Person=300"]) == 0
        assert "grade" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

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
