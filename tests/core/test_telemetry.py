"""Tests for the market recorder."""

import pytest

from repro.core import ChipPowerState, MarketRecorder, PPMGovernor
from repro.hw import tc2_chip
from repro.sim import SimConfig, Simulation
from repro.tasks import make_task


def run_recorded(duration=1.0, **recorder_kwargs):
    task = make_task("swaptions", "l", task_name="sw")
    governor = PPMGovernor()
    recorder = MarketRecorder(governor, **recorder_kwargs)
    sim = Simulation(tc2_chip(), [task], governor, config=SimConfig())
    sim.run(duration)
    return governor, recorder


class TestRecorder:
    def test_one_snapshot_per_round(self):
        governor, recorder = run_recorded(1.0)
        assert len(recorder) == governor.market.rounds_run

    def test_snapshot_contents(self):
        _, recorder = run_recorded(0.5)
        snap = recorder.snapshots[-1]
        assert "sw" in snap.bids
        assert snap.allowance > 0
        assert snap.chip_state is ChipPowerState.NORMAL
        assert snap.total_supply > 0

    def test_second_recorder_rejected(self):
        governor = PPMGovernor()
        MarketRecorder(governor)
        with pytest.raises(RuntimeError):
            MarketRecorder(governor)

    def test_aggregate_series(self):
        _, recorder = run_recorded(0.5)
        times, allowances = recorder.series("allowance")
        assert len(times) == len(recorder)
        assert all(a > 0 for a in allowances)

    def test_per_task_series(self):
        _, recorder = run_recorded(0.5)
        times, bids = recorder.series("bids", "sw")
        assert len(bids) == len(recorder)
        assert all(b > 0 for b in bids)

    def test_aggregate_series_requires_scalar(self):
        _, recorder = run_recorded(0.2)
        with pytest.raises(KeyError):
            recorder.series("bids")  # per-task quantity without task_id

    def test_state_intervals_start_with_initial_state(self):
        _, recorder = run_recorded(0.5)
        intervals = recorder.state_intervals()
        assert intervals[0][1] is ChipPowerState.NORMAL

    def test_time_in_state(self):
        _, recorder = run_recorded(0.5)
        assert recorder.time_in_state(ChipPowerState.NORMAL) == pytest.approx(1.0)
        assert recorder.time_in_state(ChipPowerState.EMERGENCY) == 0.0

    def test_capacity_bound(self):
        governor, recorder = run_recorded(1.0, capacity=5)
        _, unbounded = run_recorded(1.0)
        assert len(recorder) == 5
        assert recorder.dropped == governor.market.rounds_run - 5 > 0
        assert list(recorder.snapshots) == list(unbounded.snapshots)[-5:]

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            MarketRecorder(PPMGovernor(), capacity=0)
