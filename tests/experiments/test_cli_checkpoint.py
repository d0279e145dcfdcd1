"""CLI checkpoint/resume/replay verbs, governor validation, atomic reports."""

import os

import pytest

from repro.experiments.campaigns import run_fault_campaign
from repro.experiments.cli import build_parser, main
from repro.experiments.reporting import write_report


CAMPAIGN_ARGS = [
    "--governors", "PPM",
    "--workload", "m1",
    "--campaign-duration", "10",
    "--campaign-warmup", "2",
    "--intensity", "0.4",
    "--seed", "5",
]


class TestGovernorValidation:
    def test_unknown_governor_exits_nonzero_with_choices(self):
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["campaign", "--fault", "sensor-dropout", "--governors",
                 "PPM,BOGUS", "--campaign-duration", "10"]
            )
        message = str(excinfo.value)
        assert "BOGUS" in message
        assert "PPM" in message and "HPM" in message and "HL" in message

    def test_empty_governor_list_exits_nonzero(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "--fault", "sensor-dropout", "--governors", ", ,"])
        assert "no governors" in str(excinfo.value)

    def test_unknown_fault_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["campaign", "--fault", "nonsense"])
        assert excinfo.value.code != 0
        assert "invalid choice" in capsys.readouterr().err

    def test_campaign_without_fault_exits_cleanly(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign"])
        assert "--fault" in str(excinfo.value)


class TestCheckpointVerbs:
    def test_checkpoint_resume_replay_round_trip(self, tmp_path, capsys):
        ckpt_dir = os.path.join(str(tmp_path), "ckpt")
        out_dir = os.path.join(str(tmp_path), "results")
        base = ["--fault", "sensor-dropout", *CAMPAIGN_ARGS,
                "--checkpoint-dir", ckpt_dir, "--out", out_dir]
        assert main(["checkpoint", *base]) == 0
        point_dir = os.path.join(ckpt_dir, "point_0-PPM")
        assert os.path.exists(os.path.join(ckpt_dir, "campaign.json"))
        assert any(
            name.startswith("ckpt_0-PPM_") for name in os.listdir(point_dir)
        )
        assert main(["replay", "--checkpoint-dir", ckpt_dir, "--verify"]) == 0
        assert "clean" in capsys.readouterr().out
        assert main(["resume", "--checkpoint-dir", ckpt_dir, "--out", out_dir]) == 0
        assert "report written" in capsys.readouterr().out

    def test_resume_without_checkpoint_dir_is_actionable(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["resume", "--checkpoint-dir", os.path.join(str(tmp_path), "x")])
        assert "checkpoint directory" in str(excinfo.value)

    def test_replay_without_checkpoint_dir_is_actionable(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["replay", "--checkpoint-dir", os.path.join(str(tmp_path), "x")])
        assert "checkpoint directory" in str(excinfo.value)

    def test_resume_empty_checkpoint_dir_is_actionable(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["resume", "--checkpoint-dir", str(tmp_path)])
        assert "resume failed" in str(excinfo.value)

    def test_replay_empty_checkpoint_dir_is_actionable(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["replay", "--checkpoint-dir", str(tmp_path)])
        assert "replay failed" in str(excinfo.value)

    def test_parser_accepts_new_verbs(self):
        parser = build_parser()
        for verb in ("checkpoint", "resume", "replay"):
            args = parser.parse_args([verb])
            assert args.experiment == verb


class TestAtomicReports:
    def test_report_written_atomically_with_no_temp_leftovers(self, tmp_path):
        result = run_fault_campaign(
            "sensor-dropout",
            governors=("PPM",),
            workload="m1",
            duration_s=10.0,
            warmup_s=2.0,
            intensity=0.4,
            seed=5,
        )
        out_dir = os.path.join(str(tmp_path), "fresh")  # created on demand
        path = write_report(result, out_dir=out_dir)
        assert sorted(os.listdir(out_dir)) == [
            "campaign_sensor-dropout.json",
            "campaign_sensor-dropout.txt",
        ]
        with open(path) as handle:
            assert "Fault campaign: sensor-dropout" in handle.read()
