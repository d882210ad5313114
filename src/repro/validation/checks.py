"""Declarative validation of generated property graphs.

Benchmark datasets come with contracts: cardinalities must hold
exactly, date orderings must never be violated, distributions must be
within tolerance of their specification.  This module provides a small
validator framework on one rule — **one check, one measurement, one
band**: each :class:`Check` measures a
:class:`~repro.core.result.PropertyGraph` once and grades that one
metric against the thresholds it carries (a lenient *fail* bound, an
optional stricter *warn* bound), returning a :class:`CheckResult` with
a :class:`Grade`.  :func:`run_graded` runs a list of checks once each
and the :class:`GradedReport` aggregates their grades into one letter
grade.

The built-in checks cover every contract the running example states,
so ``run_graded(graph, standard_checks(schema))`` is a one-call
post-generation audit.

Examples
--------
>>> from repro.core import GraphGenerator
>>> from repro.datasets import social_network_schema
>>> from repro.validation import run_graded, standard_checks
>>> schema = social_network_schema(num_countries=8)
>>> graph = GraphGenerator(schema, {"Person": 400}, seed=2).generate()
>>> report = run_graded(graph, standard_checks(schema))
>>> report.passed
True
>>> print(str(report).splitlines()[-1])
grade A: 6 pass, 0 warn, 0 fail
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from ..core.schema import Cardinality
from ..stats import JointDistribution, compare_joints
from ..tables import value_codes

__all__ = [
    "Check",
    "CheckResult",
    "Grade",
    "GradedReport",
    "CardinalityCheck",
    "DateOrderingCheck",
    "MarginalDistributionCheck",
    "JointDistributionCheck",
    "DegreeDistributionCheck",
    "UniquenessCheck",
    "run_graded",
]


class Grade(Enum):
    """Per-check grade, ordered from best to worst.

    * ``PASS`` — the contract holds within the strict threshold;
    * ``WARN`` — it holds within the lenient (fail) threshold but not
      the strict (warn) one: acceptable, degraded;
    * ``FAIL`` — the contract is violated.

    Binary contracts (cardinalities, orderings, uniqueness) have no
    band and only pass or fail.
    """

    PASS = "pass"
    WARN = "warn"
    FAIL = "fail"

    def __str__(self):
        return self.value


@dataclass
class CheckResult:
    """Outcome of one check: its grade and the one metric behind it.

    ``grade`` is a :class:`Grade`; a binary contract may hand in a
    plain bool (``True`` is ``PASS``, ``False`` is ``FAIL``).
    ``metric`` carries the measured quantity (violation count, total
    variation, KS distance, mean degree, ...) so callers can trend
    results instead of only branching on ``passed``.

    >>> print(CheckResult("cardinality[creates]", True,
    ...                   "0 violations"))
    [pass] cardinality[creates] (0 violations)
    >>> warned = CheckResult("joint[knows]", Grade.WARN,
    ...                      "KS 0.4000 (threshold 0.35)", metric=0.4)
    >>> print(warned, warned.passed)
    [WARN] joint[knows] (KS 0.4000 (threshold 0.35)) True
    """

    name: str
    grade: Grade
    detail: str = ""
    metric: float | None = None

    def __post_init__(self):
        if not isinstance(self.grade, Grade):
            self.grade = Grade.PASS if self.grade else Grade.FAIL

    @property
    def passed(self):
        """True unless the grade is ``FAIL`` — a warning still passes."""
        return self.grade is not Grade.FAIL

    def __str__(self):
        label = (
            self.grade.value if self.grade is Grade.PASS
            else self.grade.value.upper()
        )
        suffix = f" ({self.detail})" if self.detail else ""
        return f"[{label}] {self.name}{suffix}"

    def to_dict(self):
        """JSON-ready dict (metric rounded for stable goldens).

        >>> CheckResult("x", Grade.FAIL, "bad", 0.5).to_dict()
        {'name': 'x', 'grade': 'fail', 'detail': 'bad', 'metric': 0.5}
        """
        metric = self.metric
        if metric is not None:
            metric = round(float(metric), 6)
        return {
            "name": self.name,
            "grade": self.grade.value,
            "detail": self.detail,
            "metric": metric,
        }


@dataclass
class GradedReport:
    """The graded results of one audit, and one letter grade for them.

    Following the evidence grading of GRASP (Khalifa et al., 2019),
    the counts map onto an overall grade:

    * ``A`` — every check passed;
    * ``B`` — no failures, at most a quarter of the checks warned;
    * ``C`` — no failures, but more than a quarter warned;
    * ``F`` — at least one failure.

    ``passed`` is True for any grade except ``F`` — warnings degrade
    the grade but do not fail the run.  Renders as text or JSON (the
    artifact CI uploads).

    >>> report = GradedReport("demo", seed=0, scale={"N": 10})
    >>> report.add(CheckResult("a", Grade.PASS, "ok"))
    >>> report.add(CheckResult("b", Grade.WARN, "close", metric=0.4))
    >>> report.add(CheckResult("c", True))
    >>> report.overall_grade, report.passed, report.failures
    ('B', True, [])
    >>> print(report)
    scenario 'demo' (seed 0, scale N=10)
      [pass] a (ok)
      [WARN] b (close)
      [pass] c
    grade B: 2 pass, 1 warn, 0 fail
    """

    scenario: str
    seed: int = 0
    scale: dict = field(default_factory=dict)
    results: list[CheckResult] = field(default_factory=list)

    def add(self, result):
        self.results.append(result)

    def count(self, grade):
        """Number of results with ``grade``."""
        return sum(1 for r in self.results if r.grade is grade)

    @property
    def counts(self):
        """Results per grade name, best grade first."""
        return {grade.value: self.count(grade) for grade in Grade}

    @property
    def failures(self):
        """The results graded ``FAIL``, in order."""
        return [r for r in self.results if not r.passed]

    @property
    def overall_grade(self):
        if self.count(Grade.FAIL):
            return "F"
        warns = self.count(Grade.WARN)
        if not warns:
            return "A"
        if warns <= max(1, len(self.results) // 4):
            return "B"
        return "C"

    @property
    def passed(self):
        return self.overall_grade != "F"

    def __str__(self):
        scale = ", ".join(
            f"{k}={v}" for k, v in sorted(self.scale.items())
        )
        lines = [
            f"scenario {self.scenario!r} (seed {self.seed}"
            + (f", scale {scale}" if scale else "") + ")"
        ]
        lines += [f"  {r}" for r in self.results]
        lines.append(f"grade {self.overall_grade}: " + ", ".join(
            f"{count} {name}" for name, count in self.counts.items()
        ))
        return "\n".join(lines)

    def to_dict(self):
        """JSON-ready dict — the schema of the uploaded CI artifact."""
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "scale": {k: int(v) for k, v in self.scale.items()},
            "grade": self.overall_grade,
            "passed": self.passed,
            "counts": self.counts,
            "checks": [r.to_dict() for r in self.results],
        }

    def to_json(self, indent=2):
        """Serialise :meth:`to_dict` (stable key order)."""
        return json.dumps(self.to_dict(), indent=indent) + "\n"


class Check:
    """Base class: subclasses implement :meth:`run`.

    A check owns its measurement *and* its band: construct it once
    with its target (edge/property names) and thresholds; each
    :meth:`run` measures one graph once and grades that one metric.
    Custom checks only need ``name`` and ``run``:

    >>> class NonEmpty(Check):
    ...     name = "non_empty[knows]"
    ...     def run(self, graph):
    ...         ok = graph.num_edges("knows") > 0
    ...         return CheckResult(self.name, ok)
    """

    name = "abstract"

    def run(self, graph):
        """Return a :class:`CheckResult` for ``graph``."""
        raise NotImplementedError

    def _violations(self, bad, what):
        """Result of a binary contract: ``bad`` violations, zero passes."""
        return CheckResult(
            self.name, bad == 0, f"{bad} {what}", metric=float(bad)
        )

    def _banded(self, value, fail, warn, detail):
        """Result of grading ``value`` against its upper bounds;
        ``detail`` is formatted with the value and the bound that
        decided the grade (the warn bound only for a ``WARN``)."""
        grade, bound = Grade.PASS, fail
        if not value <= fail:  # a NaN measurement fails
            grade = Grade.FAIL
        elif warn is not None and value > warn:
            grade, bound = Grade.WARN, warn
        return CheckResult(
            self.name, grade, detail.format(value, bound), metric=value
        )


class CardinalityCheck(Check):
    """Verify the declared cardinality of an edge type holds exactly.

    1→* : every head node has exactly one incident edge;
    1→1 : both sides are perfect matchings.

    Examples
    --------
    >>> from repro.core import GraphGenerator
    >>> from repro.datasets import social_network_schema
    >>> schema = social_network_schema(num_countries=8)
    >>> graph = GraphGenerator(schema, {"Person": 200},
    ...                        seed=2).generate()
    >>> print(CardinalityCheck("creates").run(graph))
    [pass] cardinality[creates] (0 head nodes violate exactly-one-edge)
    """

    def __init__(self, edge_name):
        self.edge_name = edge_name
        self.name = f"cardinality[{edge_name}]"

    def run(self, graph):
        edge = graph.schema.edge_type(self.edge_name)
        table = graph.edges(self.edge_name)
        if edge.cardinality is Cardinality.MANY_TO_MANY:
            return CheckResult(
                self.name, True, "*..* imposes no constraint"
            )
        head_counts = np.bincount(
            table.heads, minlength=graph.num_nodes(edge.head_type)
        )
        bad = int((head_counts != 1).sum())
        if edge.cardinality is Cardinality.ONE_TO_MANY:
            return self._violations(
                bad, "head nodes violate exactly-one-edge"
            )
        # ONE_TO_ONE
        tail_counts = np.bincount(
            table.tails, minlength=graph.num_nodes(edge.tail_type)
        )
        return self._violations(
            bad + int((tail_counts != 1).sum()),
            "endpoint violations of the bijection",
        )


class DateOrderingCheck(Check):
    """Verify an edge date property exceeds its endpoint dates.

    Parameters
    ----------
    edge_name, edge_property:
        the edge date column.
    tail_property, head_property:
        endpoint date columns (either may be None to skip that side).

    Examples
    --------
    >>> check = DateOrderingCheck(
    ...     "knows", "creationDate",
    ...     tail_property="creationDate",
    ...     head_property="creationDate")
    >>> check.name
    'date_ordering[knows.creationDate]'
    """

    def __init__(self, edge_name, edge_property,
                 tail_property=None, head_property=None):
        self.edge_name = edge_name
        self.edge_property = edge_property
        self.tail_property = tail_property
        self.head_property = head_property
        self.name = f"date_ordering[{edge_name}.{edge_property}]"

    def run(self, graph):
        edge = graph.schema.edge_type(self.edge_name)
        table = graph.edges(self.edge_name)
        values = graph.edge_property(
            self.edge_name, self.edge_property
        ).values
        bound = np.full(len(table), -np.inf)
        for prop, node_type, ids in (
            (self.tail_property, edge.tail_type, table.tails),
            (self.head_property, edge.head_type, table.heads),
        ):
            if prop:
                dates = graph.node_property(node_type, prop).values
                bound = np.maximum(bound, dates[ids])
        return self._violations(
            int((values <= bound).sum()),
            "edges violate the strict ordering",
        )


class MarginalDistributionCheck(Check):
    """Verify a property's value frequencies match a specification.

    Compares the observed frequency vector against expected weights:
    a total variation above ``tolerance`` fails, one above the
    optional stricter ``warn_tolerance`` warns.  Values outside the
    declared domain fail outright; a column with no rows has nothing
    to compare and passes.

    Examples
    --------
    >>> check = MarginalDistributionCheck(
    ...     "Person", "sex", ["female", "male"], [0.5, 0.5],
    ...     tolerance=0.1)
    >>> check.name, [round(float(w), 2) for w in check.weights]
    ('marginal[Person.sex]', [0.5, 0.5])
    """

    def __init__(self, type_name, prop_name, values, weights,
                 tolerance=0.05, warn_tolerance=None):
        self.type_name = type_name
        self.prop_name = prop_name
        self.values = list(values)
        weights = np.asarray(weights, dtype=np.float64)
        self.weights = weights / weights.sum()
        self.tolerance = tolerance
        self.warn_tolerance = warn_tolerance
        self.name = f"marginal[{type_name}.{prop_name}]"

    def run(self, graph):
        table = graph.node_property(self.type_name, self.prop_name)
        if not len(table):
            return CheckResult(self.name, True, "no rows", metric=0.0)
        _, categories, tallies = value_codes(table.read_range(0, len(table)))
        counts = dict(zip(categories.tolist(), tallies.tolist()))
        observed = np.zeros(len(self.values))
        position = {v: i for i, v in enumerate(self.values)}
        for value, slot in position.items():
            observed[slot] = counts.pop(value, 0)
        if counts:
            return CheckResult(
                self.name, False,
                f"{sum(counts.values())} values outside the declared "
                "domain",
            )
        observed /= observed.sum()
        return self._banded(
            0.5 * float(np.abs(observed - self.weights).sum()),
            self.tolerance, self.warn_tolerance,
            "total variation {:.4f} (tolerance {})",
        )


class JointDistributionCheck(Check):
    """Verify the realised property-structure joint is close to the
    requested one (KS over the sorted pair CDFs).

    A KS above ``max_ks`` fails, one above the optional stricter
    ``warn_ks`` warns.  Edge types without a match result
    (uncorrelated, random matching; or correlated with no edge to
    place) pass trivially.

    Examples
    --------
    >>> JointDistributionCheck("knows", max_ks=0.5, warn_ks=0.3).name
    'joint[knows]'
    """

    def __init__(self, edge_name, max_ks=0.5, warn_ks=None):
        self.edge_name = edge_name
        self.max_ks = max_ks
        self.warn_ks = warn_ks
        self.name = f"joint[{edge_name}]"

    def run(self, graph):
        match = graph.match_results.get(self.edge_name)
        if match is None:
            return CheckResult(self.name, True, (
                "correlated edge has no edges to match"
                if graph.schema.edge_type(self.edge_name).correlation
                else "edge is uncorrelated (random match)"
            ))
        requested = JointDistribution(match.target)
        observed = graph.observed_joint(self.edge_name)
        return self._banded(
            compare_joints(requested, observed).ks,
            self.max_ks, self.warn_ks, "KS {:.4f} (threshold {})",
        )


class DegreeDistributionCheck(Check):
    """Verify degree statistics of an edge type are in expected bands.

    ``min_mean`` / ``max_mean`` / ``max_degree`` are the fail bounds,
    ``warn_min_mean`` / ``warn_max_mean`` a stricter band on the mean
    that warns; any may be None to skip that bound.  The result's
    ``metric`` is the observed mean degree (out-degree for bipartite
    edge types).

    Examples
    --------
    >>> DegreeDistributionCheck("knows", min_mean=5, warn_min_mean=8,
    ...                         max_degree=50).name
    'degrees[knows]'
    """

    def __init__(self, edge_name, min_mean=None, max_mean=None,
                 max_degree=None, warn_min_mean=None,
                 warn_max_mean=None):
        self.edge_name = edge_name
        self.min_mean = min_mean
        self.max_mean = max_mean
        self.max_degree = max_degree
        self.warn_min_mean = warn_min_mean
        self.warn_max_mean = warn_max_mean
        self.name = f"degrees[{edge_name}]"

    def run(self, graph):
        table = graph.edges(self.edge_name)
        degrees = (
            table.out_degrees() if table.is_bipartite
            else table.degrees()
        )
        mean = float(degrees.mean()) if degrees.size else 0.0
        peak = int(degrees.max()) if degrees.size else 0

        def outside(low, high):
            problems = []
            if low is not None and mean < low:
                problems.append(f"mean {mean:.2f} < {low}")
            if high is not None and mean > high:
                problems.append(f"mean {mean:.2f} > {high}")
            return problems

        problems = outside(self.min_mean, self.max_mean)
        if self.max_degree is not None and peak > self.max_degree:
            problems.append(f"max {peak} > {self.max_degree}")
        warnings = outside(self.warn_min_mean, self.warn_max_mean)
        return CheckResult(
            self.name,
            Grade.FAIL if problems
            else Grade.WARN if warnings else Grade.PASS,
            "; ".join(problems or warnings)
            or f"mean {mean:.2f}, max {peak}",
            metric=mean,
        )


class UniquenessCheck(Check):
    """Verify a property column holds unique values (surrogate keys).

    Examples
    --------
    A hand-assembled graph with a duplicate key:

    >>> from repro.core.result import PropertyGraph
    >>> from repro.core.schema import NodeType, PropertyDef, Schema
    >>> from repro.tables import PropertyTable
    >>> schema = Schema(node_types=[
    ...     NodeType("U", properties=[PropertyDef("k", "string")])])
    >>> graph = PropertyGraph(schema, seed=0)
    >>> graph.node_counts["U"] = 3
    >>> graph.node_properties["U.k"] = PropertyTable(
    ...     "U.k", ["a", "b", "a"])
    >>> print(UniquenessCheck("U", "k").run(graph))
    [FAIL] unique[U.k] (1 duplicate values)
    """

    def __init__(self, type_name, prop_name):
        self.type_name = type_name
        self.prop_name = prop_name
        self.name = f"unique[{type_name}.{prop_name}]"

    def run(self, graph):
        values = graph.node_property(
            self.type_name, self.prop_name
        ).values
        return self._violations(
            len(values) - len(set(values)), "duplicate values"
        )


def run_graded(graph, checks, scenario="", seed=None, scale=None):
    """Run each check once against ``graph``; returns the
    :class:`GradedReport` (``seed`` defaults to the graph's).

    Checks run in order; a check that raises aborts the run (checks
    are audits of *generated* data — an exception means the graph is
    structurally broken, not merely off-spec).
    """
    return GradedReport(
        scenario=scenario,
        seed=graph.seed if seed is None else seed,
        scale=dict(scale or {}),
        results=[check.run(graph) for check in checks],
    )
