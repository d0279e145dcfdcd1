"""Tests for the claim-validation machinery (cheap checks only; the
comparative claims are exercised by the benchmark suite)."""

import pytest

from repro.experiments.validation import (
    ClaimResult,
    ValidationReport,
    _check_scalability,
    _check_table1,
    _check_table2,
    _check_table3,
)


class TestIndividualChecks:
    def test_table_checks_pass(self):
        assert _check_table1().passed
        assert _check_table2().passed
        assert _check_table3().passed

    def test_scalability_check_passes(self):
        assert _check_scalability().passed

    def test_evidence_strings_populated(self):
        result = _check_table1()
        assert result.claim_id == "T1"
        assert "supplies" in result.evidence


class TestReport:
    def test_report_aggregation(self):
        report = ValidationReport(
            results=[
                ClaimResult("A", "first", True, "x"),
                ClaimResult("B", "second", True, "y"),
            ]
        )
        assert report.passed
        report.results.append(ClaimResult("C", "third", False, "z"))
        assert not report.passed

    def test_table_rendering(self):
        report = ValidationReport(
            results=[ClaimResult("A", "desc", False, "evidence")]
        )
        text = report.as_table()
        assert "FAIL" in text and "desc" in text


class TestValidateCommand:
    """``repro-experiments validate`` gates on the claims' verdicts."""

    def _main_with(self, monkeypatch, *passed):
        from repro.experiments import cli

        report = ValidationReport(
            results=[
                ClaimResult(f"C{i}", "claim", ok, "evidence")
                for i, ok in enumerate(passed)
            ]
        )
        monkeypatch.setattr(cli, "validate_reproduction", lambda quick: report)
        return cli.main(["validate"])

    def test_failed_claim_exits_nonzero(self, monkeypatch):
        with pytest.raises(SystemExit) as excinfo:
            self._main_with(monkeypatch, True, False)
        assert excinfo.value.code not in (None, 0)
        assert "SOME CLAIMS FAILED" in str(excinfo.value.code)

    def test_all_claims_passing_returns_zero(self, monkeypatch, capsys):
        assert self._main_with(monkeypatch, True, True) == 0
        assert "ALL CLAIMS PASS" in capsys.readouterr().out
