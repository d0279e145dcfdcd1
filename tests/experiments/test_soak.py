"""Chaos/soak harness and the strict-audit plumbing around it."""

import json
import os

import pytest

from repro.experiments import (
    build_soak_schedule,
    merged_windows,
    run_soak,
    write_report,
)
from repro.experiments.campaigns import SOAK_RECOVERY_TAIL_S
from repro.experiments.cli import build_parser, main
from repro.experiments.harness import run_workload
from repro.faults import THERMAL_FAULTS, FaultKind
from repro.hw import tc2_chip

SOAK_KW = dict(workload="m2", duration_s=25.0, warmup_s=2.0, seed=4)


class TestSoakSchedule:
    def test_too_short_a_soak_is_rejected(self):
        with pytest.raises(ValueError, match="recovery tail"):
            build_soak_schedule(
                duration_s=SOAK_RECOVERY_TAIL_S + 5.0,
                warmup_s=5.0,
                chip=tc2_chip(),
            )

    def test_trains_respect_warmup_and_recovery_tail(self):
        schedule = build_soak_schedule(60.0, 5.0, tc2_chip())
        assert len(schedule) > 0
        assert min(e.start_s for e in schedule) > 5.0
        assert schedule.end_s() <= 60.0 - SOAK_RECOVERY_TAIL_S

    def test_compound_kinds_include_thermal_and_non_thermal(self):
        kinds = {e.kind for e in build_soak_schedule(120.0, 5.0, tc2_chip())}
        assert THERMAL_FAULTS <= kinds
        assert FaultKind.SENSOR_DROPOUT in kinds
        assert FaultKind.DVFS_DROP in kinds

    def test_thermal_model_faults_target_the_fastest_cluster(self):
        schedule = build_soak_schedule(60.0, 5.0, tc2_chip())
        for event in schedule:
            if event.kind in (
                FaultKind.THERMAL_RUNAWAY, FaultKind.COOLING_DEGRADED
            ):
                assert event.target == "big"


class TestMergedWindows:
    def test_overlapping_and_touching_windows_coalesce(self):
        assert merged_windows(
            [(5.0, 8.0), (1.0, 3.0), (2.0, 4.0), (4.0, 4.5)]
        ) == [(1.0, 4.5), (5.0, 8.0)]

    def test_disjoint_windows_pass_through_sorted(self):
        assert merged_windows([(6.0, 7.0), (1.0, 2.0)]) == [
            (1.0, 2.0),
            (6.0, 7.0),
        ]
        assert merged_windows([]) == []


class TestRunSoak:
    def test_short_soak_populates_every_field(self, tmp_path):
        result = run_soak(governors=("PPM",), **SOAK_KW)
        assert result.workload == "m2"
        assert result.windows == merged_windows(
            build_soak_schedule(25.0, 2.0, tc2_chip()).windows()
        )
        (run,) = result.runs
        assert run.governor == "PPM"
        # Soaks always audit and always track thermals.
        assert run.audit_violations == 0
        assert set(run.thermal_cycles) == {"big", "little"}
        assert run.peak_temperature_c > 25.0
        assert run.supervisor  # protection ladder was wired in
        assert run.unrecovered_trips == 0
        assert run.fault_stats["runaway_ticks"] > 0
        assert 0.0 <= run.miss_fraction_in_fault <= 1.0
        assert 0.0 <= run.miss_fraction_outside_fault <= 1.0
        assert run.average_power_w > 0.0
        table = result.as_table()
        assert "PPM" in table and "t>Tcrit" in table

    def test_report_files_round_trip(self, tmp_path):
        result = run_soak(governors=("PPM",), **SOAK_KW)
        path = write_report(result, out_dir=str(tmp_path))
        assert os.path.exists(path)
        payload = json.loads(open(path.replace(".txt", ".json")).read())
        assert payload["workload"] == "m2"
        assert len(payload["runs"]) == 1
        assert payload["runs"][0]["governor"] == "PPM"

    def test_parallel_soak_matches_serial(self):
        serial = run_soak(governors=("PPM", "HPM"), jobs=1, **SOAK_KW)
        parallel = run_soak(governors=("PPM", "HPM"), jobs=2, **SOAK_KW)
        assert serial.to_json() == parallel.to_json()


class TestStrictAudit:
    def test_run_workload_reports_audit_violations(self):
        run = run_workload(
            "m1", "PPM", duration_s=3.0, warmup_s=1.0, strict_audit=True
        )
        assert run.audit_violations == 0  # the books balance

    def test_audit_off_by_default(self):
        run = run_workload("m1", "PPM", duration_s=3.0, warmup_s=1.0)
        assert run.audit_violations == 0  # nothing audited, nothing flagged


class TestSoakCLI:
    def test_soak_is_an_extra_command(self):
        from repro.experiments.cli import _COMMANDS, _EXTRA_COMMANDS

        assert "soak" in _EXTRA_COMMANDS
        assert "soak" not in _COMMANDS

    def test_parser_accepts_soak_flags(self):
        args = build_parser().parse_args(["soak", "--soak-duration", "30"])
        assert args.soak_duration == pytest.approx(30.0)
        # A soak always audits, so it rejects the sweeps' --strict-audit
        # rather than silently ignoring it.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["soak", "--strict-audit"])
        assert excinfo.value.code == 2
        assert build_parser().parse_args(["fig4"]).strict_audit is False

    def test_cli_soak_end_to_end(self, tmp_path, capsys):
        code = main(
            [
                "soak",
                "--governors",
                "PPM",
                "--soak-duration",
                "20",
                "--campaign-warmup",
                "2",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Chaos soak" in out
        assert os.path.exists(tmp_path / "soak_m2.txt")
        assert os.path.exists(tmp_path / "soak_m2.json")
