"""Tests for the validation subsystem."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import GraphGenerator
from repro.datasets import social_network_schema
from repro.validation import (
    CardinalityCheck,
    CheckResult,
    DateOrderingCheck,
    DegreeDistributionCheck,
    Grade,
    GradedReport,
    JointDistributionCheck,
    MarginalDistributionCheck,
    UniquenessCheck,
    run_graded,
    standard_checks,
)


@pytest.fixture(scope="module")
def graph():
    schema = social_network_schema(num_countries=10)
    return GraphGenerator(schema, {"Person": 1200}, seed=8).generate()


@pytest.fixture(scope="module")
def schema():
    return social_network_schema(num_countries=10)


class TestStandardChecks:
    def test_derives_expected_checks(self, schema):
        checks = standard_checks(schema)
        names = {check.name for check in checks}
        assert "cardinality[creates]" in names
        assert "joint[knows]" in names
        assert "date_ordering[knows.creationDate]" in names
        assert "date_ordering[creates.creationDate]" in names
        assert "marginal[Person.country]" in names
        assert "marginal[Person.sex]" in names

    def test_running_example_passes(self, graph, schema):
        report = run_graded(graph, standard_checks(schema))
        assert report.passed, str(report)

    def test_report_string(self, graph, schema):
        report = run_graded(graph, standard_checks(schema))
        text = str(report)
        assert "grade A: 6 pass, 0 warn, 0 fail" in text
        assert "[pass]" in text


class TestCardinalityCheck:
    def test_passes_on_valid(self, graph):
        result = CardinalityCheck("creates").run(graph)
        assert result.passed

    def test_many_to_many_trivially_passes(self, graph):
        result = CardinalityCheck("knows").run(graph)
        assert result.passed

    def test_detects_violation(self, graph):
        # Corrupt a copy: point two creates edges at the same Message.
        import copy

        broken = copy.copy(graph)
        broken.edge_tables = dict(graph.edge_tables)
        table = graph.edges("creates")
        heads = table.heads.copy()
        heads[1] = heads[0]
        from repro.tables import EdgeTable

        broken.edge_tables["creates"] = EdgeTable(
            "creates", table.tails, heads,
            num_tail_nodes=table.num_tail_nodes,
            num_head_nodes=table.num_head_nodes,
            directed=True,
        )
        result = CardinalityCheck("creates").run(broken)
        assert not result.passed
        assert result.metric >= 2  # one over-assigned + one orphan


class TestDateOrderingCheck:
    def test_passes_on_valid(self, graph):
        result = DateOrderingCheck(
            "knows", "creationDate",
            tail_property="creationDate",
            head_property="creationDate",
        ).run(graph)
        assert result.passed

    def test_detects_violation(self, graph):
        import copy

        from repro.tables import PropertyTable

        broken = copy.copy(graph)
        broken.edge_properties = dict(graph.edge_properties)
        values = graph.edge_property(
            "knows", "creationDate"
        ).values.copy()
        values[0] = 0  # before any person's creation
        broken.edge_properties["knows.creationDate"] = PropertyTable(
            "knows.creationDate", values
        )
        result = DateOrderingCheck(
            "knows", "creationDate",
            tail_property="creationDate",
        ).run(broken)
        assert not result.passed
        assert result.metric == 1.0


class TestMarginalCheck:
    def test_passes_within_tolerance(self, graph):
        from repro.datasets import country_names, country_weights

        check = MarginalDistributionCheck(
            "Person", "country",
            country_names()[:10], country_weights()[:10],
            tolerance=0.08,
        )
        assert check.run(graph).passed

    def test_fails_on_wrong_spec(self, graph):
        check = MarginalDistributionCheck(
            "Person", "sex", ["female", "male"], [0.99, 0.01],
            tolerance=0.05,
        )
        result = check.run(graph)
        assert not result.passed
        assert result.metric > 0.3

    def test_detects_out_of_domain(self, graph):
        check = MarginalDistributionCheck(
            "Person", "sex", ["female"], [1.0]
        )
        result = check.run(graph)
        assert not result.passed
        assert "outside the declared domain" in result.detail
        assert result.metric is None

    def test_empty_column_passes_without_nan(self, graph):
        import copy

        from repro.tables import PropertyTable

        empty = copy.copy(graph)
        empty.node_properties = {
            "Person.sex": PropertyTable("Person.sex", np.array([], "U6"))
        }
        result = MarginalDistributionCheck(
            "Person", "sex", ["female", "male"], [0.5, 0.5]
        ).run(empty)
        assert result.grade is Grade.PASS
        assert result.metric == 0.0


class TestJointCheck:
    def test_passes_with_loose_threshold(self, graph):
        assert JointDistributionCheck("knows", max_ks=0.9).run(
            graph
        ).passed

    def test_fails_with_impossible_threshold(self, graph):
        assert not JointDistributionCheck(
            "knows", max_ks=1e-6
        ).run(graph).passed

    def test_uncorrelated_edge_trivially_passes(self, graph):
        assert JointDistributionCheck("creates").run(graph).passed

    def test_correlated_edge_without_edges_says_so(self):
        empty = GraphGenerator(
            social_network_schema(num_countries=8), {"Person": 0}
        ).generate()
        result = JointDistributionCheck("knows").run(empty)
        assert result.passed
        assert result.detail == "correlated edge has no edges to match"


class TestDegreeCheck:
    def test_band_pass(self, graph):
        check = DegreeDistributionCheck(
            "knows", min_mean=5, max_mean=30, max_degree=50
        )
        assert check.run(graph).passed

    def test_band_fail(self, graph):
        check = DegreeDistributionCheck("knows", min_mean=100)
        result = check.run(graph)
        assert not result.passed
        assert "mean" in result.detail


class TestWarnBand:
    """Each thresholded check grades its one metric against both of
    its bounds; the detail names the bound that decided the grade."""

    @staticmethod
    def _assert_band(graph, make, loose, tight, detail):
        """``make(fail, warn)`` builds the check; the measured metric
        lies between the ``tight`` and ``loose`` bounds."""
        metric = make(loose, None).run(graph).metric
        assert tight < metric < loose
        for grade, fail, warn, named in (
            (Grade.PASS, loose, loose, loose),
            (Grade.WARN, loose, tight, tight),
            (Grade.FAIL, tight, tight, tight),
        ):
            result = make(fail, warn).run(graph)
            assert result.grade is grade
            assert result.passed is (grade is not Grade.FAIL)
            assert result.metric == metric
            assert result.detail == detail.format(metric, named)

    def test_joint(self, graph):
        self._assert_band(
            graph,
            lambda fail, warn: JointDistributionCheck(
                "knows", max_ks=fail, warn_ks=warn),
            0.9, 0.01, "KS {:.4f} (threshold {})",
        )

    def test_marginal(self, graph):
        self._assert_band(
            graph,
            lambda fail, warn: MarginalDistributionCheck(
                "Person", "sex", ["female", "male"], [0.7, 0.3],
                tolerance=fail, warn_tolerance=warn),
            0.5, 0.1, "total variation {:.4f} (tolerance {})",
        )

    def test_degrees(self, graph):
        mean = DegreeDistributionCheck("knows").run(graph).metric
        low, high = mean - 1, mean + 1
        warn = DegreeDistributionCheck(
            "knows", max_mean=high, warn_max_mean=low).run(graph)
        assert warn.grade is Grade.WARN and warn.passed
        assert warn.metric == mean
        assert warn.detail == f"mean {mean:.2f} > {low}"
        ok = DegreeDistributionCheck(
            "knows", max_mean=high, warn_max_mean=high).run(graph)
        assert ok.grade is Grade.PASS
        assert ok.detail.startswith(f"mean {mean:.2f}, max ")
        bad = DegreeDistributionCheck(
            "knows", min_mean=high, warn_max_mean=low).run(graph)
        assert bad.grade is Grade.FAIL and not bad.passed
        assert bad.detail == f"mean {mean:.2f} < {high}"

    def test_no_warn_bound_never_warns(self, graph):
        result = JointDistributionCheck("knows", max_ks=0.9).run(graph)
        assert result.grade is Grade.PASS


class TestUniquenessCheck:
    def test_duplicates_detected(self, graph):
        # Names repeat by design.
        result = UniquenessCheck("Person", "name").run(graph)
        assert not result.passed

    def test_unique_passes(self):
        from repro.core import (
            GeneratorSpec, GraphGenerator, NodeType, PropertyDef,
            Schema,
        )

        schema = Schema(
            node_types=[
                NodeType(
                    "T",
                    properties=[
                        PropertyDef(
                            "key",
                            "string",
                            GeneratorSpec(
                                "composite_key", {"prefix": "t"}
                            ),
                        )
                    ],
                )
            ]
        )
        generated = GraphGenerator(schema, {"T": 50}, seed=1).generate()
        assert UniquenessCheck("T", "key").run(generated).passed


class TestReportAggregation:
    def test_failures_listed(self):
        report = GradedReport(
            "s", results=[
                CheckResult("a", True),
                CheckResult("b", False, "boom"),
            ]
        )
        assert not report.passed
        assert len(report.failures) == 1
        assert "FAIL" in str(report)
