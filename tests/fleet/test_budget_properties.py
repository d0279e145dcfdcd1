"""Property-based tests: the grid-budget market's invariants.

Whatever bids, regions, ladder positions and dead-chip subsets the fleet
throws at it, the clearing must conserve the grid budget, never pay a
down chip, never exceed a weighted claim, and the readmission ladder
must climb one rung at a time under hysteresis.  These are the fleet
analogue of the chip market's property suite.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.fleet import (
    ChipBid,
    FleetBudgetAuditor,
    FleetBudgetConfig,
    FleetBudgetInvariantError,
    ReadmissionLadder,
    clear_grants,
)

_EPS = 1e-6


@st.composite
def fleets(draw):
    """A budget config, a bid list, and a weights map (None = down)."""
    n = draw(st.integers(min_value=1, max_value=12))
    budget = draw(
        st.floats(min_value=0.5, max_value=64.0, allow_nan=False)
    )
    min_grant = draw(st.floats(min_value=0.0, max_value=2.0, allow_nan=False))
    regions = ["us-east", "eu-west", "ap-south", "local"]
    prices = {
        region: draw(
            st.floats(min_value=0.2, max_value=5.0, allow_nan=False)
        )
        for region in regions[:3]
    }
    config = FleetBudgetConfig(
        grid_budget_w=budget,
        min_grant_w=min_grant,
        region_prices=prices,
    )
    bids = []
    weights = {}
    for i in range(n):
        chip_id = f"chip{i:02d}"
        tdp = draw(st.floats(min_value=0.5, max_value=16.0, allow_nan=False))
        bid = draw(st.floats(min_value=0.0, max_value=32.0, allow_nan=False))
        bids.append(
            ChipBid(
                chip_id=chip_id,
                bid_w=bid,
                tdp_w=tdp,
                region=draw(st.sampled_from(regions)),
            )
        )
        rung = draw(
            st.one_of(
                st.none(),
                st.integers(
                    min_value=0, max_value=len(config.ladder_weights) - 1
                ),
            )
        )
        weights[chip_id] = (
            None if rung is None else config.ladder_weights[rung]
        )
    return config, bids, weights


@given(fleets())
@settings(max_examples=200, deadline=None)
def test_conservation_under_any_dead_subset(fleet):
    """Grants never sum above the grid budget, dead chips or not."""
    config, bids, weights = fleet
    grants = clear_grants(config, bids, weights)
    assert sum(grants.values()) <= config.grid_budget_w + _EPS


@given(fleets())
@settings(max_examples=200, deadline=None)
def test_no_negative_grants_and_down_chips_get_zero(fleet):
    config, bids, weights = fleet
    grants = clear_grants(config, bids, weights)
    assert set(grants) == {b.chip_id for b in bids}
    for bid in bids:
        grant = grants[bid.chip_id]
        assert grant >= 0.0
        if weights[bid.chip_id] is None:
            assert grant == 0.0


@given(fleets())
@settings(max_examples=200, deadline=None)
def test_no_grant_exceeds_weighted_claim(fleet):
    config, bids, weights = fleet
    grants = clear_grants(config, bids, weights)
    for bid in bids:
        weight = weights[bid.chip_id]
        if weight is not None:
            assert grants[bid.chip_id] <= bid.demand_w * weight + _EPS


@given(fleets())
@settings(max_examples=200, deadline=None)
def test_auditor_accepts_every_clearing(fleet):
    """clear_grants output passes the strict auditor by construction."""
    config, bids, weights = fleet
    grants = clear_grants(config, bids, weights)
    auditor = FleetBudgetAuditor(strict=True)
    record = auditor.audit_epoch(0, config, bids, weights, grants)
    assert record.ok


@given(fleets())
@settings(max_examples=100, deadline=None)
def test_determinism_and_bid_order_independence(fleet):
    """Clearing is a pure function of (config, bid set, weights)."""
    config, bids, weights = fleet
    grants = clear_grants(config, bids, weights)
    again = clear_grants(config, list(reversed(bids)), dict(weights))
    assert grants == again


@given(
    st.integers(min_value=1, max_value=4),
    st.lists(
        st.sampled_from(["healthy", "failure", "restart"]),
        min_size=1,
        max_size=40,
    ),
)
@settings(max_examples=200, deadline=None)
def test_ladder_never_skips_a_rung(hysteresis, events):
    """Any event sequence moves the ladder at most one rung at a time."""
    config = FleetBudgetConfig(grid_budget_w=8.0, hysteresis_epochs=hysteresis)
    ladder = ReadmissionLadder(config)
    top = len(config.ladder_weights) - 1
    assert ladder.rung == top  # fresh chips start at full share
    previous = ladder.rung
    for epoch, event in enumerate(events):
        if event == "healthy":
            ladder.on_healthy_epoch(epoch)
        elif event == "failure":
            ladder.on_failure(epoch)
        else:
            if ladder.down:
                ladder.on_restart(epoch)
        current = ladder.rung
        if previous is None:
            assert current in (None, 0)  # readmission lands on the bottom
        elif current is not None:
            assert abs(current - previous) <= 1
        previous = current
        assert current is None or 0 <= current <= top


@given(st.integers(min_value=2, max_value=5))
@settings(max_examples=20, deadline=None)
def test_ladder_respects_hysteresis(hysteresis):
    """A promotion needs ``hysteresis`` consecutive healthy epochs."""
    config = FleetBudgetConfig(
        grid_budget_w=8.0, hysteresis_epochs=hysteresis
    )
    ladder = ReadmissionLadder(config)
    ladder.on_failure(0)
    ladder.on_restart(1)
    assert ladder.rung == 0
    epoch = 2
    for _ in range(hysteresis - 1):
        ladder.on_healthy_epoch(epoch)
        epoch += 1
    assert ladder.rung == 0  # one short of the gate: no promotion
    ladder.on_healthy_epoch(epoch)
    assert ladder.rung == 1  # the gating epoch promotes exactly one rung


def test_ladder_failure_resets_streak():
    config = FleetBudgetConfig(grid_budget_w=8.0, hysteresis_epochs=2)
    ladder = ReadmissionLadder(config)
    ladder.on_failure(0)
    ladder.on_restart(1)
    ladder.on_healthy_epoch(2)
    ladder.on_failure(3)  # flap: back to DOWN, streak gone
    ladder.on_restart(4)
    ladder.on_healthy_epoch(5)
    assert ladder.rung == 0  # the pre-failure streak must not carry over


def test_full_share_chip_keeps_counting_healthy_epochs():
    """The top rung cannot promote, but its streak still counts."""
    ladder = ReadmissionLadder(FleetBudgetConfig(grid_budget_w=8.0))
    for epoch in range(5):
        ladder.on_healthy_epoch(epoch)
    assert ladder.snapshot_state() == {
        "rung": 3,
        "healthy_streak": 5,
        "transitions": [],
    }


def test_ladder_snapshot_roundtrip():
    config = FleetBudgetConfig(grid_budget_w=8.0)
    ladder = ReadmissionLadder(config)
    ladder.on_failure(2)
    ladder.on_restart(3)
    ladder.on_healthy_epoch(4)
    clone = ReadmissionLadder(config)
    clone.restore_state(ladder.snapshot_state())
    assert clone.rung == ladder.rung
    assert clone.healthy_streak == ladder.healthy_streak
    assert clone.transitions == ladder.transitions


def test_auditor_catches_conservation_violation():
    config = FleetBudgetConfig(grid_budget_w=4.0)
    bids = [ChipBid(chip_id="chip00", bid_w=8.0, tdp_w=8.0)]
    auditor = FleetBudgetAuditor(strict=True)
    with pytest.raises(FleetBudgetInvariantError, match="F1 conservation"):
        auditor.audit_epoch(
            0, config, bids, {"chip00": 1.0}, {"chip00": 9.0}
        )


def test_auditor_catches_paid_down_chip_and_rung_skip():
    config = FleetBudgetConfig(grid_budget_w=8.0)
    bids = [
        ChipBid(chip_id="chip00", bid_w=4.0, tdp_w=8.0),
        ChipBid(chip_id="chip01", bid_w=4.0, tdp_w=8.0),
    ]
    auditor = FleetBudgetAuditor()
    record = auditor.audit_epoch(
        0,
        config,
        bids,
        {"chip00": None, "chip01": 1.0},
        {"chip00": 1.0, "chip01": 4.0},
    )
    auditor.audit_moves(
        record,
        {"chip00": None, "chip01": 1},
        # readmitted above bottom + 2-rung jump
        {"chip00": [(0, None, 2)], "chip01": [(0, 1, 3)]},
        {"chip00": 2, "chip01": 3},
    )
    kinds = " ".join(record.violations)
    assert "F3" in kinds and "F5" in kinds
    assert len(auditor.violations()) == len(record.violations)


def test_auditor_catches_unlogged_moves():
    """The logged moves must chain from the epoch-start rung to the rung
    the ladder ends on; each break is a move the log left out."""
    config = FleetBudgetConfig(grid_budget_w=8.0)
    bids = [ChipBid(chip_id="chip00", bid_w=4.0, tdp_w=8.0)]
    weights, grants = {"chip00": 1.0}, {"chip00": 4.0}
    auditor = FleetBudgetAuditor()
    record = auditor.audit_epoch(0, config, bids, weights, grants)
    auditor.audit_moves(
        record,
        {"chip00": 0, "chip01": None},
        {"chip00": [(0, 1, 2)]},
        {"chip00": 3, "chip01": 1},
    )
    assert record.violations == [
        "F5 unlogged move: chip00 moved 0 -> 1",
        "F5 unlogged move: chip00 moved 2 -> 3",
        "F5 unlogged move: chip01 moved DOWN -> 1",
    ]
    strict = FleetBudgetAuditor(strict=True)
    record = strict.audit_epoch(1, config, bids, weights, grants)
    with pytest.raises(FleetBudgetInvariantError, match="F5 unlogged move"):
        strict.audit_moves(record, {"chip00": 2}, {}, {"chip00": 3})


@given(
    st.lists(
        st.lists(st.sampled_from(["healthy", "failure", "restart"]), max_size=4),
        max_size=12,
    ),
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=100, deadline=None)
def test_auditor_passes_every_legal_ladder_history(epochs, hysteresis):
    """Whatever a real ladder does in an epoch, F5 finds nothing."""
    config = FleetBudgetConfig(grid_budget_w=8.0, hysteresis_epochs=hysteresis)
    ladder = ReadmissionLadder(config)
    auditor = FleetBudgetAuditor(strict=True)
    for epoch, events in enumerate(epochs):
        start, logged = ladder.rung, len(ladder.transitions)
        record = auditor.audit_epoch(epoch, config, [], {}, {})
        for event in events:
            if event == "healthy":
                ladder.on_healthy_epoch(epoch)
            elif event == "failure":
                ladder.on_failure(epoch)
            elif ladder.down:
                ladder.on_restart(epoch)
        auditor.audit_moves(
            record,
            {"chip00": start},
            {"chip00": ladder.transitions[logged:]},
            {"chip00": ladder.rung},
        )
        assert record.ok


def test_duplicate_chip_ids_rejected():
    config = FleetBudgetConfig(grid_budget_w=8.0)
    bids = [
        ChipBid(chip_id="chip00", bid_w=4.0, tdp_w=8.0),
        ChipBid(chip_id="chip00", bid_w=2.0, tdp_w=8.0),
    ]
    with pytest.raises(ValueError, match="duplicate chip id"):
        clear_grants(config, bids, {"chip00": 1.0})


def test_cheap_region_clears_more_under_scarcity():
    """Price weighting: identical demand, cheaper electricity, more watts."""
    config = FleetBudgetConfig(
        grid_budget_w=6.0,
        min_grant_w=0.0,
        region_prices={"cheap": 0.5, "dear": 2.0},
    )
    bids = [
        ChipBid(chip_id="chip00", bid_w=8.0, tdp_w=8.0, region="cheap"),
        ChipBid(chip_id="chip01", bid_w=8.0, tdp_w=8.0, region="dear"),
    ]
    grants = clear_grants(config, bids, {"chip00": 1.0, "chip01": 1.0})
    assert grants["chip00"] > grants["chip01"]
    assert sum(grants.values()) == pytest.approx(6.0)
