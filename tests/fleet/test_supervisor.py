"""The fleet supervisor end to end: small real fleets, real processes.

Kept deliberately tiny (two or three chips, sub-second epochs, tight
retry timeouts) so the whole file stays inside tier-1 time while still
exercising the actual multi-process runtime: spawn, heartbeats, epoch
lockstep, fault detection, checkpoint restart, ladder readmission and
the budget audit.
"""

import json
import os

import pytest

from repro.fleet import (
    ChipSpec,
    FleetBudgetConfig,
    FleetConfig,
    FleetFaultSchedule,
    FleetSupervisor,
    ReadmissionLadder,
    RetryPolicy,
    parse_fleet_fault,
)

#: Short detection windows: a test stall is waited out in ~1.5 s.
RETRY = RetryPolicy(attempts=2, timeout_s=0.5, backoff=2.0, max_timeout_s=1.0)


def small_config(epochs=2, epoch_s=0.2, chips=2, hysteresis=1):
    return FleetConfig(
        chips=tuple(
            ChipSpec(
                chip_id=f"chip{i:02d}",
                workload=("m1", "m2", "l1")[i % 3],
                seed=11 + i,
                region=("us-east", "eu-west")[i % 2],
            )
            for i in range(chips)
        ),
        epochs=epochs,
        epoch_s=epoch_s,
        budget=FleetBudgetConfig(
            grid_budget_w=3.0 * chips,
            region_prices={"eu-west": 1.2, "us-east": 1.0},
            hysteresis_epochs=hysteresis,
        ),
        retry=RETRY,
    )


def run_fleet(tmp_path, name, config, schedule=None):
    supervisor = FleetSupervisor(
        config, str(tmp_path / name), schedule=schedule, strict_audit=False
    )
    return supervisor.run()


def test_fault_free_fleet_is_deterministic(tmp_path):
    config = small_config()
    first = run_fleet(tmp_path, "a", config)
    second = run_fleet(tmp_path, "b", config)
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
    assert first["epochs_completed"] == config.epochs
    assert first["audit"]["violations"] == []
    assert first["total_restarts"] == 0
    for chip in first["chips"].values():
        assert chip["completed_epochs"] == config.epochs


def test_fleet_report_has_no_wall_clock_content(tmp_path):
    """Nothing pid- or time-shaped may leak into the deterministic record."""
    report = run_fleet(tmp_path, "fleet", small_config())
    text = json.dumps(report)
    assert "pid" not in text
    assert "monotonic" not in text
    assert "wall" not in text


def test_worker_kill_is_detected_restarted_and_readmitted(tmp_path):
    config = small_config(epochs=4)
    schedule = FleetFaultSchedule([parse_fleet_fault("worker-kill@1:chip00")])
    report = run_fleet(tmp_path, "kill", config, schedule)
    assert report["faults_injected"] == {"worker-kill": 1}
    epoch, chip_id, kind = report["failures"][0]
    assert (epoch, chip_id, kind) == (1, "chip00", "WorkerClosed")
    chip = report["chips"]["chip00"]
    assert chip["restarts"] == 1
    assert chip["completed_epochs"] == config.epochs  # caught back up
    assert report["audit"]["violations"] == []
    # Ladder walked: top -> DOWN (kill) -> 0 (readmit) -> one rung/epoch.
    transitions = [tuple(t) for t in chip["ladder_transitions"]]
    assert (1, 3, None) in transitions
    assert (2, None, 0) in transitions


def test_killed_chip_budget_flows_to_survivors(tmp_path):
    """Graceful degradation: a revenant's budget share shrinks, the
    survivors inherit the slack, and conservation holds throughout."""
    config = small_config(epochs=3)
    schedule = FleetFaultSchedule([parse_fleet_fault("worker-kill@1:chip00")])
    report = run_fleet(tmp_path, "degrade", config, schedule)
    rows = {row["epoch"]: row for row in report["rows"]}
    # The kill lands during epoch 1's drive, so that row records the
    # chip as down; at epoch 2 it is readmitted on bottom-rung probation
    # (weight 0.25), clearing far less than its pre-crash grant.
    assert "chip00" in rows[1]["down"]
    assert rows[2]["rungs"]["chip00"] == 0
    assert rows[2]["grants"]["chip00"] < rows[0]["grants"]["chip00"]
    assert rows[2]["grants"]["chip01"] >= rows[2]["grants"]["chip00"]
    for row in rows.values():
        assert (
            sum(row["grants"].values())
            <= config.budget.grid_budget_w + 1e-6
        )


def test_message_loss_recovers_without_restart(tmp_path):
    """A dropped result is re-served from the worker's idempotent cache."""
    config = small_config(epochs=3)
    schedule = FleetFaultSchedule(
        [parse_fleet_fault("worker-msg-loss@1:chip01:1")]
    )
    report = run_fleet(tmp_path, "drop", config, schedule)
    assert report["faults_injected"] == {"worker-msg-loss": 1}
    assert report["total_restarts"] == 0
    assert report["failures"] == []
    assert report["chips"]["chip01"]["completed_epochs"] == config.epochs
    assert report["audit"]["violations"] == []


def test_stalled_worker_is_timed_out_and_restarted(tmp_path):
    config = small_config(epochs=4)
    schedule = FleetFaultSchedule(
        [parse_fleet_fault("worker-stall@1:chip00:3600")]
    )
    report = run_fleet(tmp_path, "stall", config, schedule)
    assert report["faults_injected"] == {"worker-stall": 1}
    assert report["chips"]["chip00"]["restarts"] == 1
    assert report["chips"]["chip00"]["completed_epochs"] == config.epochs
    assert any(kind == "WorkerTimeout" for _, _, kind in report["failures"])
    assert report["audit"]["violations"] == []


def test_hysteresis_slows_readmission(tmp_path):
    """With 2-epoch hysteresis a revenant spends 2 epochs per rung."""
    config = small_config(epochs=6, hysteresis=2)
    schedule = FleetFaultSchedule([parse_fleet_fault("worker-kill@1:chip00")])
    report = run_fleet(tmp_path, "hyst", config, schedule)
    rungs = [row["rungs"]["chip00"] for row in report["rows"]]
    # Readmitted at epoch 2 on rung 0; each promotion needs two aligned
    # healthy epochs, so by the final epoch it must still be below top.
    assert rungs[2] == 0
    top = len(config.budget.ladder_weights) - 1
    assert all(r is None or r < top for r in rungs[2:])
    assert report["audit"]["violations"] == []


@pytest.mark.parametrize(
    "logs, violation",
    [
        (True, "F5 rung skip: chip01 moved 0 -> 2 in one step"),
        (False, "F5 unlogged move: chip01 moved 0 -> 2"),
    ],
    ids=["logged", "unlogged"],
)
def test_audit_flags_a_promotion_that_skips_a_rung(
    tmp_path, monkeypatch, logs, violation
):
    """F5 sees promotions, not only the restarts before the clearing,
    and sees them whether or not the ladder logs them.

    Promotions are patched to climb two rungs, through the snapshot
    interface only.  The killed chip is readmitted on rung 0 at epoch 2
    and then promoted straight to rung 2 in the same epoch.
    """

    def skip_a_rung(self, epoch):
        state = self.snapshot_state()
        rung = state["rung"]
        if rung is None:
            return
        new = min(rung + 2, len(self.config.ladder_weights) - 1)
        if new != rung and logs:
            state["transitions"].append([epoch, rung, new])
        state["rung"], state["healthy_streak"] = new, 0
        self.restore_state(state)

    monkeypatch.setattr(ReadmissionLadder, "on_healthy_epoch", skip_a_rung)
    config = small_config(epochs=3, epoch_s=0.3, chips=3)
    schedule = FleetFaultSchedule([parse_fleet_fault("worker-kill@1:chip01")])
    report = run_fleet(tmp_path, "skip", config, schedule)
    assert ([2, 0, 2] in report["chips"]["chip01"]["ladder_transitions"]) == logs
    assert report["audit"]["violations"] == [f"epoch 2: {violation}"]


def test_per_chip_checkpoints_live_under_fleet_dir(tmp_path):
    config = small_config()
    fleet_dir = tmp_path / "layout"
    FleetSupervisor(config, str(fleet_dir)).run()
    for spec in config.chips:
        chip_dir = fleet_dir / "chips" / spec.chip_id
        assert chip_dir.is_dir()
        assert any(name.startswith("ckpt_") for name in os.listdir(chip_dir))
    assert (fleet_dir / "fleet_manifest.json").is_file()


def test_campaign_refuses_duplicate_chips():
    with pytest.raises(ValueError, match="duplicate chip ids"):
        FleetConfig(
            chips=(
                ChipSpec(chip_id="chip00", seed=1),
                ChipSpec(chip_id="chip00", seed=2),
            ),
            epochs=1,
            budget=FleetBudgetConfig(grid_budget_w=8.0),
        )
