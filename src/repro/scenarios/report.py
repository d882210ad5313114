"""Graded validation reports: pass/warn/fail per check, one grade overall.

Scenario fidelity should be *comparable* — across recipes, across
seeds, across PRs — which a bare boolean cannot express.  Following the
evidence-grading framing of GRASP (Khalifa et al., 2019), every
:class:`~repro.validation.CheckResult` carries a
:class:`~repro.validation.Grade` — ``PASS``, ``WARN`` or ``FAIL``.

The grading itself is the check's: one check, one measurement, one
band (:mod:`repro.validation.checks`).  This module only aggregates —
:func:`run_graded` runs each check once and the :class:`GradedReport`
maps the grade counts onto an overall letter grade and renders as text
or JSON (the artifact CI uploads).

Examples
--------
>>> report = GradedReport("demo", seed=0, scale={"N": 10})
>>> report.add(CheckResult("a", Grade.PASS, "ok"))
>>> report.add(CheckResult("b", Grade.WARN, "close", metric=0.4))
>>> report.overall_grade
'B'
>>> report.passed
True
>>> print(report)          # doctest: +ELLIPSIS
scenario 'demo' (seed 0, scale N=10)
  [pass] a (ok)
  [WARN] b (close)
...
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..validation import CheckResult, Grade

__all__ = ["Grade", "GradedReport", "run_graded"]


@dataclass
class GradedReport:
    """Aggregated graded results for one scenario run.

    The overall letter grade summarises the counts:

    * ``A`` — every check passed;
    * ``B`` — no failures, at most a quarter of the checks warned;
    * ``C`` — no failures, but more than a quarter warned;
    * ``F`` — at least one failure.

    ``passed`` is True for any grade except ``F`` — warnings degrade
    the grade but do not fail the run.
    """

    scenario: str
    seed: int = 0
    scale: dict = field(default_factory=dict)
    results: list[CheckResult] = field(default_factory=list)

    def add(self, result):
        self.results.append(result)

    def count(self, grade):
        """Number of results with ``grade``.

        >>> r = GradedReport("s")
        >>> r.add(CheckResult("a", True))
        >>> r.count(Grade.PASS), r.count(Grade.FAIL)
        (1, 0)
        """
        return sum(1 for r in self.results if r.grade is grade)

    @property
    def counts(self):
        """Results per grade name, best grade first."""
        return {grade.value: self.count(grade) for grade in Grade}

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
        lines += [f"  {r.line(ok='pass')}" for r in self.results]
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


def run_graded(graph, graded_checks, scenario="", seed=None,
               scale=None):
    """Run each check once against ``graph``; returns the report."""
    return GradedReport(
        scenario=scenario,
        seed=graph.seed if seed is None else seed,
        scale=dict(scale or {}),
        results=[check.run(graph) for check in graded_checks],
    )
