"""Model-error campaign: schedule builder, runner, CLI verb, reporting.

Also pins the governor-side wiring: with estimation on, governors trade
on the served (estimated) sample; ``PPMConfig.use_estimated_power=False``
pins the market back to the metered sensor as the ablation arm.
"""

import json

import pytest

from repro.core import MarketConfig, PPMConfig, PPMGovernor
from repro.core.powerest import EstimationConfig
from repro.experiments.cli import _parse_floats, build_parser, main
from repro.experiments.modelerror import (
    BIAS_START_AFTER_WARMUP_S,
    DRIFT_START_AFTER_WARMUP_S,
    ModelErrorResult,
    build_model_error_schedule,
    run_model_error_campaign,
)
from repro.experiments.reporting import write_report
from repro.faults import FaultKind
from repro.hw import tc2_chip
from repro.sim import SimConfig, Simulation
from repro.tasks import build_workload


class TestScheduleBuilder:
    def test_zero_grid_point_is_fault_free(self):
        schedule = build_model_error_schedule(
            0.0, 0.0, duration_s=30.0, warmup_s=5.0, chip=tc2_chip()
        )
        assert len(schedule) == 0

    def test_bias_and_drift_windows_sit_after_warmup(self):
        schedule = build_model_error_schedule(
            0.5, 0.2, duration_s=40.0, warmup_s=5.0, chip=tc2_chip()
        )
        bias = schedule.of_kind(FaultKind.COUNTER_BIAS)
        drift = schedule.of_kind(FaultKind.POWER_MODEL_DRIFT)
        assert len(bias) == 1 and len(drift) == 1
        assert bias[0].start_s == pytest.approx(5.0 + BIAS_START_AFTER_WARMUP_S)
        assert bias[0].magnitude == pytest.approx(1.5)  # 1 + error
        assert drift[0].start_s == pytest.approx(
            5.0 + DRIFT_START_AFTER_WARMUP_S
        )

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError, match="error magnitude"):
            build_model_error_schedule(
                -0.1, 0.0, duration_s=30.0, warmup_s=5.0, chip=tc2_chip()
            )
        with pytest.raises(ValueError, match="drift rate"):
            build_model_error_schedule(
                0.0, -0.1, duration_s=30.0, warmup_s=5.0, chip=tc2_chip()
            )


class TestCampaignRunner:
    def test_tiny_campaign_covers_the_grid(self):
        result = run_model_error_campaign(
            governors=("PPM",),
            workload="m1",
            duration_s=8.0,
            warmup_s=2.0,
            error_magnitudes=(0.0, 2.0),
            drift_rates=(0.0,),
            seed=3,
            jobs=1,
        )
        assert len(result.runs) == 2
        clean, biased = result.runs
        assert clean.error_magnitude == 0.0
        assert biased.error_magnitude == 2.0
        for run in result.runs:
            assert run.governor == "PPM"
            assert run.audit_violations == 0
            assert set(run.estimation_error_w) == {"p50", "p95", "p99"}
            assert run.tdp_violation_s >= 0.0
        table = result.as_table()
        assert "PPM" in table and "p95" in table

    def test_report_writes_text_and_json(self, tmp_path):
        result = run_model_error_campaign(
            governors=("PPM",),
            workload="m1",
            duration_s=6.0,
            warmup_s=2.0,
            error_magnitudes=(0.0,),
            drift_rates=(0.0,),
            seed=3,
            jobs=1,
        )
        text_path = write_report(result, out_dir=str(tmp_path))
        assert text_path.endswith("modelerror.txt")
        payload = json.loads((tmp_path / "modelerror.json").read_text())
        assert payload["runs"][0]["governor"] == "PPM"
        assert (tmp_path / "modelerror.txt").read_text().strip()


class TestCli:
    def test_parser_registers_model_error_verb(self):
        args = build_parser().parse_args(["model-error"])
        assert args.error_magnitudes == "0.0,0.5,2.0"
        assert args.drift_rates == "0.0,0.2,0.5"

    def test_parse_floats_accepts_csv(self):
        assert _parse_floats("0.0, 1.5,2", "--error-magnitudes") == [
            0.0,
            1.5,
            2.0,
        ]

    @pytest.mark.parametrize("bad", ["", "0.1,junk", ","])
    def test_parse_floats_rejects_junk(self, bad):
        with pytest.raises(SystemExit) as excinfo:
            _parse_floats(bad, "--drift-rates")
        assert "--drift-rates" in str(excinfo.value)

    def test_model_error_verb_runs_and_reports(self, tmp_path, capsys):
        code = main(
            [
                "model-error",
                "--governors", "PPM",
                "--workload", "m1",
                "--campaign-duration", "6",
                "--campaign-warmup", "2",
                "--error-magnitudes", "0.0",
                "--drift-rates", "0.0",
                "--jobs", "1",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        assert (tmp_path / "modelerror.txt").exists()
        assert (tmp_path / "modelerror.json").exists()
        assert "model" in capsys.readouterr().out.lower()


class TestGovernorWiring:
    @staticmethod
    def _run(use_estimated_power, estimation):
        governor = PPMGovernor(
            PPMConfig(
                market=MarketConfig(wtdp=4.0),
                use_estimated_power=use_estimated_power,
            )
        )
        sim = Simulation(
            tc2_chip(),
            build_workload("m1"),
            governor,
            config=SimConfig(seed=4, estimation=estimation),
        )
        sim.run(1.0)
        return sim

    def test_estimation_on_serves_estimated_sample(self):
        sim = self._run(True, EstimationConfig(warmup_ticks=10))
        assert sim.last_power_sample() is sim.estimation.served_sample
        assert sim.last_power_sample() is not sim.metered_power_sample()

    def test_estimation_off_serves_metered_sample(self):
        sim = self._run(True, None)
        assert sim.estimation is None
        assert (
            sim.last_power_sample().chip_power_w
            == sim.metered_power_sample().chip_power_w
        )

    def test_ablation_flag_pins_ppm_to_metered(self):
        # Identical seeds; the only difference is the governor-side flag.
        on = self._run(True, EstimationConfig(warmup_ticks=10))
        off = self._run(False, EstimationConfig(warmup_ticks=10))
        # Both sims still estimate (telemetry), but only the first trades
        # on it: the flag reaches the market's observed power.
        assert on.estimation is not None and off.estimation is not None
        assert on.governor.config.use_estimated_power
        assert not off.governor.config.use_estimated_power
