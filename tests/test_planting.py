"""Planting subsystem tests (docs/planting.md).

Pillars:

* **templates** — construction invariants for every kind, explicit
  edge lists, and the error paths;
* **plan invariants** (hypothesis) — node maps injective, in-range and
  disjoint across instances; appended edge ids contiguous after the
  generated block; every template edge present post-injection unless
  deleted; the plan is a pure function of its inputs;
* **noise operators** — delete drops edges, rewire redirects heads,
  corrupt withholds forced attributes;
* **recipe wiring** — the spec registry's template-kind choices stay
  in sync with :data:`repro.planting.TEMPLATE_KINDS`, invalid plants
  fail compile with recipe paths;
* **matcher** — the baseline matcher recovers every plant (recall 1.0,
  exact node maps) at zero noise, and reports truncation honestly;
* **byte identity** — planted exports out of core, at workers
  {1, 2, 4} x backend {thread, process}, are byte-identical to the
  in-memory run's;
* **golden triples** — the exported (template, world, ground_truth)
  bytes are pinned for 2 seeds x 2 template kinds
  (``tests/golden/planting/regenerate.py``);
* **zoo smoke clamp** — later scale anchors clamp proportionally
  (regression for the first-anchor-only clamp).
"""

from __future__ import annotations

import filecmp
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graphstats import TemplateQuery, match_template, verify_plants
from repro.planting import (
    TEMPLATE_KINDS,
    PlantingError,
    compile_plants,
    make_template,
    plan_plants,
    planted_graph,
)
from repro.prng import RandomStream
from repro.scenarios import compile_scenario, run_scenario
from repro.scenarios.spec import RECIPE_FIELDS, ScenarioError
from repro.scenarios.zoo import load_zoo, zoo_names

TESTS_DIR = Path(__file__).resolve().parent
GOLDEN_DIR = TESTS_DIR / "golden" / "planting"

common_settings = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _load_script(path, name):
    """Import a non-package script (tools/, golden/) under a unique
    module name."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GOLDEN_REGEN = _load_script(
    GOLDEN_DIR / "regenerate.py", "golden_planting_regenerate"
)
ZOO_SMOKE = _load_script(
    TESTS_DIR.parent / "tools" / "run_zoo_smoke.py",
    "tool_run_zoo_smoke",
)


def lab_recipe(**plant_body):
    """A small planted scenario for integration tests."""
    plant = {
        "edge": "link",
        "template": {"kind": "ring", "size": 5},
        "count": 2,
        "attributes": {"flag": "marked"},
    }
    plant.update(plant_body)
    return {
        "scenario": "plant_lab",
        "seed": 17,
        "nodes": {
            "N": {
                "properties": {
                    "flag": {
                        "generator": "categorical",
                        "params": {
                            "values": ["clean", "marked"],
                            "weights": [0.9, 0.1],
                        },
                    },
                },
            },
        },
        "edges": {
            "link": {
                "tail": "N",
                "head": "N",
                "structure": {
                    "generator": "watts_strogatz",
                    "params": {"k": 4, "beta": 0.15},
                },
            },
        },
        "plants": {"probe": plant},
        "scale": {"N": 80},
        "export": {"formats": ["csv"]},
    }


def _compile_lab_plants(**plant_body):
    compiled = compile_scenario(lab_recipe(**plant_body))
    return compiled


# ---------------------------------------------------------------------------
# Templates
# ---------------------------------------------------------------------------


class TestTemplates:
    def test_ring(self):
        t = make_template("r", "ring", size=4)
        assert t.edge_list() == [(0, 1), (1, 2), (2, 3), (3, 0)]

    def test_star(self):
        t = make_template("s", "star", size=4)
        assert t.edge_list() == [(0, 1), (0, 2), (0, 3)]

    def test_clique(self):
        t = make_template("c", "clique", size=4)
        assert t.num_edges == 6
        assert set(t.edge_list()) == {
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)
        }

    def test_path(self):
        t = make_template("p", "path", size=4)
        assert t.edge_list() == [(0, 1), (1, 2), (2, 3)]

    def test_tree_is_connected_and_acyclic(self):
        stream = RandomStream(99, "tree-test")
        t = make_template("t", "tree", size=9, stream=stream)
        assert t.num_edges == 8
        # Random recursive tree: every edge attaches child j to an
        # earlier node, so parents precede children.
        for a, b in t.edge_list():
            assert a < b

    def test_large_tree_equals_per_node_draws(self):
        """The one-pass grower draws what a per-node ``randint`` loop
        draws: node ``i``'s parent is ``randint(i, 0, i)``."""
        size = 100_000
        t = make_template("t", "tree", size=size,
                          stream=RandomStream(7, "tree-large"))
        stream = RandomStream(7, "tree-large")
        parents = [int(stream.randint(np.asarray([i]), 0, i)[0])
                   for i in range(1, size)]
        assert t.tails.tolist() == parents
        assert t.heads.tolist() == list(range(1, size))

    def test_explicit_edges(self):
        t = make_template(
            "e", "edges", edges=[[0, 1], [1, 2], [0, 2]]
        )
        assert t.size == 3 and t.num_edges == 3

    @pytest.mark.parametrize("kind,size", [
        ("ring", 2), ("star", 1), ("clique", 1), ("path", 1),
        ("tree", 1),
    ])
    def test_too_small(self, kind, size):
        with pytest.raises(PlantingError):
            make_template("x", kind, size=size,
                          stream=RandomStream(1, "t"))

    def test_unknown_kind(self):
        with pytest.raises(PlantingError):
            make_template("x", "pentagram", size=5)

    @pytest.mark.parametrize("edges", [
        [[0, 0]],                 # self loop
        [[0, 1], [0, 1]],         # duplicate
        [[0, 1], [1, 0]],         # reversed duplicate (undirected)
        [[0, 2]],                 # non-dense ids
    ])
    def test_bad_explicit_edges(self, edges):
        with pytest.raises(PlantingError):
            make_template("x", "edges", edges=edges)

    def test_reversed_pair_ok_when_directed(self):
        t = make_template("x", "edges", edges=[[0, 1], [1, 0]],
                          directed=True)
        assert t.num_edges == 2

    @common_settings
    @given(
        kind=st.sampled_from(["ring", "star", "clique", "path",
                              "tree"]),
        size=st.integers(min_value=3, max_value=12),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_template_invariants(self, kind, size, seed):
        t = make_template(
            "h", kind, size=size, stream=RandomStream(seed, "grow")
        )
        assert t.size == size
        edges = t.edge_list()
        assert len(set(edges)) == t.num_edges
        for a, b in edges:
            assert 0 <= a < size and 0 <= b < size and a != b
        assert int(t.degrees().sum()) == 2 * t.num_edges


# ---------------------------------------------------------------------------
# Recipe wiring
# ---------------------------------------------------------------------------


class TestRecipeWiring:
    def test_spec_kind_choices_match_template_kinds(self):
        # The registry literal must track the planting module, or the
        # docs table and recipe validation drift from the real kinds.
        field = next(
            f for f in RECIPE_FIELDS
            if f.path == "plants.<plant>.template.kind"
        )
        assert tuple(field.choices) == tuple(TEMPLATE_KINDS)

    def test_unknown_edge_rejected(self):
        with pytest.raises(ScenarioError, match="plants.probe.edge"):
            compile_scenario(lab_recipe(edge="nope"))

    def test_unknown_attribute_rejected(self):
        with pytest.raises(ScenarioError, match="attributes"):
            compile_scenario(lab_recipe(attributes={"nope": 1}))

    def test_bad_noise_rejected(self):
        with pytest.raises(ScenarioError, match="noise"):
            compile_scenario(
                lab_recipe(noise={"delete": 1.5})
            )

    def test_bipartite_edge_rejected(self):
        recipe = lab_recipe()
        recipe["nodes"]["M"] = {"properties": {}}
        recipe["scale"]["M"] = 40
        recipe["edges"]["owns"] = {
            "tail": "N", "head": "M",
            "structure": {
                "generator": "bipartite_configuration",
                "params": {
                    "tail_distribution": {
                        "$zipf": {"exponent": 1.3, "max": 8},
                    },
                    "head_distribution": {
                        "$zipf": {"exponent": 1.1, "max": 8},
                    },
                    "tail_offset": 1,
                    "head_offset": 1,
                    "head_nodes": {"$scale": "M"},
                },
            },
        }
        recipe["plants"]["probe"]["edge"] = "owns"
        with pytest.raises(ScenarioError, match="monopartite"):
            compile_scenario(recipe)

    def test_scale_constructor_resolves_final_anchor(self):
        # {$scale: Type} tracks overrides, not just the recipe value.
        recipe = lab_recipe()
        recipe["edges"]["link"]["structure"] = {
            "generator": "erdos_renyi_m",
            "params": {"m": {"$scale": "N"}},
        }
        compiled = compile_scenario(recipe, scale={"N": 48})
        edge = compiled.schema.edge_type("link")
        assert edge.structure.params["m"] == 48

    def test_scale_constructor_unknown_type(self):
        recipe = lab_recipe()
        recipe["edges"]["link"]["structure"]["params"]["k"] = {
            "$scale": "Nope"
        }
        with pytest.raises(ScenarioError, match=r"\$scale"):
            compile_scenario(recipe)


# ---------------------------------------------------------------------------
# Plan invariants
# ---------------------------------------------------------------------------


def _lab_plants(**plant_body):
    return _compile_lab_plants(**plant_body).plants


class TestPlanInvariants:
    @common_settings
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        n=st.integers(min_value=40, max_value=300),
        kind=st.sampled_from(["ring", "star", "clique", "path",
                              "tree"]),
        size=st.integers(min_value=3, max_value=7),
        count=st.integers(min_value=1, max_value=3),
    )
    def test_node_maps_injective_in_range_disjoint(
            self, seed, n, kind, size, count):
        compiled = compile_scenario(lab_recipe(
            template={"kind": kind, "size": size}, count=count,
        ), seed=seed)
        plan = plan_plants(
            compiled.plants, {"N": n}, {"link": 1000}, compiled.seed
        )
        seen = set()
        for inst in plan.instances:
            ids = [int(v) for v in inst.node_map]
            assert len(set(ids)) == len(ids) == size
            assert all(0 <= v < n for v in ids)
            assert not seen & set(ids), "instance maps must be disjoint"
            seen.update(ids)

    @common_settings
    @given(seed=st.integers(min_value=0, max_value=2**32))
    def test_plan_is_deterministic(self, seed):
        plants = _lab_plants()
        one = plan_plants(plants, {"N": 120}, {"link": 77}, seed)
        two = plan_plants(plants, {"N": 120}, {"link": 77}, seed)
        assert one.to_dict() == two.to_dict()

    def test_appended_ids_contiguous_after_base(self):
        plants = _lab_plants()
        plan = plan_plants(plants, {"N": 100}, {"link": 50}, 3)
        ids = [
            rec["edge_id"]
            for inst in plan.instances for rec in inst.edges
            if rec["status"] != "deleted"
        ]
        tails, heads = plan.appended["link"]
        assert ids == list(range(50, 50 + tails.size))
        worlds = [
            tuple(rec["world"])
            for inst in plan.instances for rec in inst.edges
            if rec["status"] == "planted"
        ]
        assert worlds == list(zip(tails.tolist(), heads.tolist()))

    def test_delete_noise_drops_everything_at_rate_one(self):
        plants = _lab_plants(noise={"delete": 1.0})
        plan = plan_plants(plants, {"N": 100}, {"link": 10}, 5)
        assert plan.appended == {}
        for inst in plan.instances:
            assert all(
                rec["status"] == "deleted" for rec in inst.edges
            )

    def test_rewire_noise_redirects_heads(self):
        plants = _lab_plants(noise={"rewire": 1.0})
        plan = plan_plants(plants, {"N": 100}, {"link": 10}, 5)
        tails, heads = plan.appended["link"]
        for inst in plan.instances:
            mapped = set(int(v) for v in inst.node_map)
            for rec in inst.edges:
                assert rec["status"] == "rewired"
                u, v = rec["world"]
                assert rec["rewired_to"] not in (u, v)
        # Rewired heads are recorded in the appended arrays.
        rewired_to = [
            rec["rewired_to"]
            for inst in plan.instances for rec in inst.edges
        ]
        assert heads.tolist() == rewired_to

    def test_corrupt_noise_withholds_overrides_at_rate_one(self):
        plants = _lab_plants(noise={"corrupt": 1.0})
        plan = plan_plants(plants, {"N": 100}, {"link": 10}, 5)
        assert plan.overrides == {}
        for inst in plan.instances:
            assert len(inst.corrupted) == 5  # one per template node

    def test_world_too_small(self):
        plants = _lab_plants(count=3)  # 3 x 5 nodes > 10
        with pytest.raises(PlantingError, match="too small"):
            plan_plants(plants, {"N": 10}, {"link": 5}, 1)

    def test_ground_truth_document_roundtrips_json(self):
        plants = _lab_plants()
        plan = plan_plants(plants, {"N": 100}, {"link": 40}, 9)
        doc = json.loads(json.dumps(plan.to_dict()))
        assert doc["version"] == 1
        assert doc["appended"]["link"]["start"] == 40
        probe = doc["plants"]["probe"]
        assert probe["template"]["kind"] == "ring"
        assert len(probe["instances"]) == 2


# ---------------------------------------------------------------------------
# Injection (integration)
# ---------------------------------------------------------------------------


class TestInjection:
    @pytest.fixture(scope="class")
    def planted_run(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("plant-lab")
        compiled = compile_scenario(lab_recipe())
        graph, report, written = run_scenario(
            compiled, workers=1, out_dir=str(out), validate=False
        )
        yield compiled, graph, written, out
        if hasattr(graph, "cleanup"):
            graph.cleanup()

    def test_every_template_edge_present(self, planted_run):
        compiled, graph, written, out = planted_run
        plan = graph.plan
        table = graph.edges("link")
        pairs = set(zip(
            np.asarray(table.tails).tolist(),
            np.asarray(table.heads).tolist(),
        ))
        for inst in plan.instances:
            for rec in inst.edges:
                if rec["status"] == "deleted":
                    continue
                u = rec["world"][0]
                v = (rec["rewired_to"]
                     if rec["status"] == "rewired"
                     else rec["world"][1])
                assert (u, v) in pairs, rec

    def test_forced_attributes_applied(self, planted_run):
        compiled, graph, written, out = planted_run
        plan = graph.plan
        values = np.asarray(graph.node_property("N", "flag").values)
        for inst in plan.instances:
            assert (values[inst.node_map] == "marked").all()

    def test_ground_truth_file_matches_plan(self, planted_run):
        compiled, graph, written, out = planted_run
        gt_path = out / "ground_truth.json"
        assert str(gt_path) in written
        with open(gt_path, encoding="utf-8") as handle:
            assert json.load(handle) == graph.plan.to_dict()

    def test_manifest_embeds_planting_block(self, planted_run):
        compiled, graph, written, out = planted_run
        with open(out / "manifest.json", encoding="utf-8") as handle:
            manifest = json.load(handle)
        assert manifest["planting"] == graph.plan.to_dict()
        # Table metadata covers the appended block.
        assert manifest["tables"]["link"]["rows"] == len(
            graph.edges("link")
        )

    def test_compile_plants_requires_schema_edge(self):
        compiled = compile_scenario(lab_recipe())
        with pytest.raises(PlantingError):
            compile_plants(
                {"bad": {"edge": "missing",
                         "template": {"kind": "ring", "size": 3}}},
                compiled.schema, 1,
            )


# ---------------------------------------------------------------------------
# Matcher
# ---------------------------------------------------------------------------


class TestMatcher:
    def test_triangle_in_triangle_world(self):
        tails = np.array([0, 1, 2, 3], dtype=np.int64)
        heads = np.array([1, 2, 0, 0], dtype=np.int64)
        query = TemplateQuery(
            tails=np.array([0, 1, 2]), heads=np.array([1, 2, 0]),
            size=3,
        )
        result = match_template(query, tails, heads, num_nodes=4)
        # 3 rotations x 2 orientations of the one triangle.
        assert result.num_matches == 6
        assert result.contains(np.array([0, 1, 2]))
        assert not result.contains(np.array([0, 1, 3]))

    def test_truncation_reported(self):
        # A clique world has factorially many path embeddings.
        k = 7
        t, h = np.triu_indices(k, 1)
        query = TemplateQuery(
            tails=np.array([0, 1]), heads=np.array([1, 2]), size=3,
        )
        result = match_template(
            query, t.astype(np.int64), h.astype(np.int64),
            num_nodes=k, max_matches=5,
        )
        assert result.truncated
        assert result.num_matches == 5

    def test_label_filter_prunes(self):
        tails = np.array([0, 1, 3, 4], dtype=np.int64)
        heads = np.array([1, 2, 4, 5], dtype=np.int64)
        labels = np.array(["x", "x", "x", "y", "y", "y"])
        constraint = [(labels, "y")]
        query = TemplateQuery(
            tails=np.array([0, 1]), heads=np.array([1, 2]), size=3,
            labels={0: constraint, 1: constraint, 2: constraint},
        )
        result = match_template(query, tails, heads, num_nodes=6)
        assert result.num_matches >= 1
        for row in result.matches:
            assert (labels[row] == "y").all()

    @pytest.mark.parametrize("name", [
        "fraud_ring_social", "c2_pattern_infra_telemetry",
    ])
    def test_zero_noise_recall_is_one(self, name):
        scale = {"fraud_ring_social": {"Person": 400},
                 "c2_pattern_infra_telemetry": {"Host": 300}}[name]
        compiled = compile_scenario(load_zoo(name), scale=scale)
        graph, _, _ = run_scenario(
            compiled, workers=1, validate=False
        )
        report = verify_plants(graph.materialize(), graph.plan)
        assert report["recall"] == 1.0, report
        for row in report["plants"].values():
            assert row["recovered"] == row["instances"]
            assert row["rows_per_sec"] > 0


# ---------------------------------------------------------------------------
# Byte identity across execution paths
# ---------------------------------------------------------------------------


IDENTITY_COMBOS = [
    # (workers, backend) out of core, against the in-memory baseline.
    (1, "thread"), (2, "thread"), (4, "thread"),
    (2, "process"), (4, "process"),
]


def _export_files(out):
    return {
        p.relative_to(out): p
        for p in Path(out).rglob("*") if p.is_file()
    }


class TestByteIdentity:
    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("plant-ref")
        compiled = compile_scenario(
            load_zoo("c2_pattern_infra_telemetry"),
            scale={"Host": 250},
        )
        run_scenario(compiled, out_dir=str(out), validate=False)
        return out

    @pytest.mark.parametrize(
        "workers,backend", IDENTITY_COMBOS,
        ids=[f"w{w}-sharded-{b}" for w, b in IDENTITY_COMBOS],
    )
    def test_planted_export_byte_identical(self, reference, tmp_path,
                                           workers, backend):
        compiled = compile_scenario(
            load_zoo("c2_pattern_infra_telemetry"),
            scale={"Host": 250},
        )
        graph, _, _ = run_scenario(
            compiled, workers=workers, out_dir=str(tmp_path),
            validate=False, shard_rows=128, backend=backend,
        )
        if hasattr(graph, "cleanup"):
            graph.cleanup()
        ref_files = _export_files(reference)
        got_files = _export_files(tmp_path)
        assert sorted(ref_files) == sorted(got_files)
        for rel, ref_path in ref_files.items():
            assert filecmp.cmp(
                ref_path, got_files[rel], shallow=False
            ), f"{rel} differs (workers={workers}, backend={backend})"


# ---------------------------------------------------------------------------
# Golden triples
# ---------------------------------------------------------------------------


class TestGoldenTriples:
    @pytest.mark.parametrize("kind", GOLDEN_REGEN.KINDS)
    @pytest.mark.parametrize("seed", GOLDEN_REGEN.SEEDS)
    def test_triple_bytes_pinned(self, kind, seed, tmp_path):
        GOLDEN_REGEN.write_triple(kind, seed, tmp_path)
        fixture_dir = GOLDEN_DIR / GOLDEN_REGEN.fixture_name(
            kind, seed
        )
        fixtures = sorted(
            p for p in fixture_dir.iterdir() if p.is_file()
        )
        assert fixtures, f"no fixtures for {kind} seed {seed}"
        for fixture in fixtures:
            produced = tmp_path / fixture.name
            assert produced.read_bytes() == fixture.read_bytes(), \
                f"{fixture.name} ({kind}, seed {seed})"


# ---------------------------------------------------------------------------
# Zoo smoke clamp (regression)
# ---------------------------------------------------------------------------


class TestZooSmokeClamp:
    def test_later_anchors_clamp_proportionally(self):
        # The original bug: only {User: 4000} was clamped, leaving
        # {Item: 2000} at full size.
        assert ZOO_SMOKE.clamp_scale(
            {"User": 4000, "Item": 2000}, 500
        ) == {"User": 500, "Item": 250}

    def test_power_of_two_anchors_stay_power_of_two(self):
        assert ZOO_SMOKE.clamp_scale({"Page": 4096}, 500) == \
            {"Page": 256}
        assert ZOO_SMOKE.clamp_scale({"A": 4096, "B": 1024}, 500) == \
            {"A": 256, "B": 64}

    def test_small_scales_untouched(self):
        assert ZOO_SMOKE.clamp_scale({"N": 100}, 500) == {"N": 100}
        assert ZOO_SMOKE.clamp_scale({}, 500) == {}

    def test_floor_of_one(self):
        clamped = ZOO_SMOKE.clamp_scale({"A": 4000, "B": 3}, 500)
        assert clamped == {"A": 500, "B": 1}

    def test_every_planted_zoo_recipe_registered(self):
        # Both benchmark recipes ship in the zoo and declare plants.
        names = set(zoo_names())
        assert {"fraud_ring_social",
                "c2_pattern_infra_telemetry"} <= names
        scales = {"fraud_ring_social": {"Person": 60},
                  "c2_pattern_infra_telemetry": {"Host": 60}}
        for name, scale in scales.items():
            compiled = compile_scenario(load_zoo(name), scale=scale)
            assert compiled.plants, name


# ---------------------------------------------------------------------------
# Overlay pass-through
# ---------------------------------------------------------------------------


class TestOverlayPassThrough:
    def test_empty_plan_is_identity(self):
        compiled = compile_scenario(lab_recipe())
        graph = compiled.generator().generate()
        plan = plan_plants([], graph.node_counts, {"link": 10}, 1)
        assert planted_graph(graph, plan) is graph
