"""Tests for the fault-campaign harness and its CLI wiring."""

import argparse
import json
import os

import pytest

from repro.experiments import (
    CAMPAIGN_FAULTS,
    build_campaign_schedule,
    run_fault_campaign,
    write_report,
)
from repro.experiments.cli import build_parser, main
from repro.faults import FaultKind
from repro.hw import tc2_chip


class TestScheduleBuilder:
    def test_windows_start_after_warmup_and_leave_recovery_room(self):
        schedule = build_campaign_schedule(
            FaultKind.SENSOR_DROPOUT,
            duration_s=40.0,
            warmup_s=5.0,
            intensity=0.3,
            chip=tc2_chip(),
        )
        windows = schedule.windows()
        assert windows
        assert min(start for start, _ in windows) >= 5.0
        assert schedule.end_s() < 40.0  # recovery is observable
        total = sum(end - start for start, end in windows)
        assert total == pytest.approx(0.3 * 8.0 * len(windows))

    def test_cluster_faults_target_the_fastest_cluster(self):
        chip = tc2_chip()
        schedule = build_campaign_schedule(
            FaultKind.HOTPLUG, 40.0, 5.0, 0.3, chip
        )
        assert all(e.target == "big" for e in schedule)
        sensor = build_campaign_schedule(
            FaultKind.SENSOR_STUCK, 40.0, 5.0, 0.3, chip
        )
        assert all(e.target is None for e in sensor)

    def test_intensity_bounds_enforced(self):
        for bad in (0.0, -0.1, 0.9):
            with pytest.raises(ValueError):
                build_campaign_schedule(
                    FaultKind.SENSOR_DROPOUT, 40.0, 5.0, bad, tc2_chip()
                )

    def test_every_cli_fault_name_is_buildable(self):
        for kind in CAMPAIGN_FAULTS.values():
            schedule = build_campaign_schedule(kind, 40.0, 5.0, 0.3, tc2_chip())
            assert len(schedule) > 0


class TestCampaignRuns:
    def test_unknown_fault_and_governor_rejected(self):
        with pytest.raises(ValueError, match="valid kinds:.*sensor-dropout"):
            run_fault_campaign("meteor-strike")
        with pytest.raises(KeyError):
            run_fault_campaign(
                "sensor-dropout", governors=("NOPE",), duration_s=10.0
            )

    def test_short_campaign_collects_comparable_runs(self, tmp_path):
        result = run_fault_campaign(
            "sensor-stuck",
            governors=("PPM", "HPM"),
            duration_s=12.0,
            warmup_s=2.0,
            intensity=0.25,
            seed=3,
        )
        assert [run.governor for run in result.runs] == ["PPM", "HPM"]
        for run in result.runs:
            assert run.fault_stats["sensor_stuck_reads"] > 0
            assert 0.0 <= run.miss_fraction_in_fault <= 1.0
            assert 0.0 <= run.miss_fraction_outside_fault <= 1.0
            assert run.average_power_w > 0.0
            assert run.tdp_violation_s >= 0.0
        # Every governor replayed the same windows.
        assert result.windows == list(
            build_campaign_schedule(
                FaultKind.SENSOR_STUCK, 12.0, 2.0, 0.25, tc2_chip()
            ).windows()
        )
        table = result.as_table()
        assert "sensor-stuck" in table and "PPM" in table and "HPM" in table
        path = write_report(result, out_dir=str(tmp_path))
        assert os.path.exists(path)
        payload = json.loads(
            open(path.replace(".txt", ".json")).read()
        )
        assert payload["fault"] == "sensor-stuck"
        assert len(payload["runs"]) == 2


class TestCLI:
    def test_campaign_requires_fault(self):
        args = build_parser().parse_args(["campaign"])
        assert args.fault is None
        with pytest.raises(SystemExit):
            main(["campaign"])

    def test_campaign_choices_cover_all_single_chip_kinds(self):
        """--fault offers every kind except the fleet tier's, which only
        the 'fleet' verb can inject (worker processes, not one sim)."""
        from repro.faults import FLEET_FAULTS

        verbs = next(
            a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        campaign = verbs.choices["campaign"]
        action = next(a for a in campaign._actions if a.dest == "fault")
        assert sorted(action.choices) == sorted(
            k.value for k in FaultKind if k not in FLEET_FAULTS
        )
        assert not set(action.choices) & {k.value for k in FLEET_FAULTS}

    def test_campaign_excluded_from_all(self):
        from repro.experiments.cli import _COMMANDS, _EXTRA_COMMANDS

        assert "campaign" in _EXTRA_COMMANDS
        assert "campaign" not in _COMMANDS

    def test_cli_campaign_end_to_end(self, tmp_path, capsys):
        code = main(
            [
                "campaign",
                "--fault",
                "heartbeat-loss",
                "--governors",
                "PPM",
                "--campaign-duration",
                "10",
                "--campaign-warmup",
                "2",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "heartbeat-loss" in out
        assert os.path.exists(tmp_path / "campaign_heartbeat-loss.txt")
