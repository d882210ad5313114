"""Tests for the report generator and the report/validate CLI."""

from __future__ import annotations

from pathlib import Path

from repro.cli import main
from repro.experiments import generate_report, render_markdown_table, report
from repro.validation import CheckResult

ROOT = Path(__file__).resolve().parent.parent


class TestRenderMarkdownTable:
    def test_basic(self):
        text = render_markdown_table(
            [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]
        )
        lines = text.strip().split("\n")
        assert lines[0] == "| a | b |"
        assert lines[1] == "|---|---|"
        assert lines[2] == "| 1 | x |"

    def test_empty(self):
        assert "no rows" in render_markdown_table([])


class TestReproductionRecord:
    def test_docs_record_is_current(self, monkeypatch):
        """docs/reproduction.md is ``generate_report(0)`` byte for byte,
        here on the numpy paths (CI diffs the compiled leg)."""
        monkeypatch.setenv("REPRO_NO_CKERNEL", "1")
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        text, findings = generate_report(0)
        assert findings.passed, [str(r) for r in findings.failures]
        assert text == (ROOT / "docs" / "reproduction.md").read_text()

    def test_every_finding_is_a_gated_row(self, monkeypatch):
        monkeypatch.setattr(report, "EXPERIMENTS", (report._table1,))
        text, findings = generate_report(0)
        assert len(findings.results) == 7
        for result in findings.results:
            assert f"| {result.name} | gated | pass |" in text
        assert "7/7 findings pass." in text


def _failing_experiment(seed):
    """X1 — a planted experiment

    Its one finding fails."""
    return [{"value": 1}], [CheckResult("X1 planted finding", False, "1")]


class TestCliReport:
    def test_exit_0_when_every_finding_passes(self, tmp_path, capsys,
                                               monkeypatch):
        monkeypatch.setattr(report, "EXPERIMENTS", (report._table1,))
        out = tmp_path / "r.md"
        assert main(["report", "--out", str(out)]) == 0
        assert "# Reproduction record" in out.read_text()
        assert capsys.readouterr().out == f"wrote {out}\n"

    def test_a_failing_finding_exits_1_and_is_named(self, tmp_path, capsys,
                                                    monkeypatch):
        monkeypatch.setattr(report, "EXPERIMENTS",
                            (report._table1, _failing_experiment))
        out = tmp_path / "r.md"
        assert main(["report", "--out", str(out)]) == 1
        printed = capsys.readouterr().out
        assert "[FAIL] X1 planted finding (1)" in printed
        assert "T1" not in printed
        assert "| X1 planted finding | gated | fail | 1 |" in (
            out.read_text()
        )


class TestCliValidate:
    def test_passes_on_default(self, capsys):
        code = main(["validate", "--persons", "800"])
        assert code == 0
        out = capsys.readouterr().out
        assert "grade A: 6 pass, 0 warn, 0 fail" in out
        assert "FAIL" not in out
