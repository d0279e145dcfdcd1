"""Property tests for the shared degradation ladder (``repro.core.ladder``).

Random ladders take random interleavings of ``observe``, ``escalate``,
``relax``, ``hold``, ``drop`` and ``reenter``.  Whatever the sequence,
every move other than ``drop`` and ``reenter`` is one rung, ``observe``
holds inside its band, ``relax`` moves only after ``recovery``
consecutive requests, and ``restore`` round-trips.  The per-supervisor
ladder tests (thermal, estimator, admission, watchdog, fleet) stay as
the reference for what each supervisor does with its rungs.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    AdmissionController,
    AdmissionState,
    EstimationConfig,
    EstimatorState,
    EstimatorSupervisor,
    MarketWatchdog,
    ThermalState,
    ThermalSupervisor,
    WatchdogState,
)
from repro.core.ladder import Ladder
from repro.hw import ThermalProtectionConfig


@st.composite
def ladder_specs(draw):
    """Rung names, ascending entry scores, hysteresis and recovery."""
    n = draw(st.integers(min_value=2, max_value=6))
    thresholds = sorted(
        draw(
            st.lists(
                st.floats(min_value=0.0, max_value=10.0),
                min_size=n - 1,
                max_size=n - 1,
                unique=True,
            )
        )
    )
    rungs = [f"r{i}" for i in range(n)]
    return (
        rungs,
        dict(zip(rungs[1:], thresholds)),
        draw(st.floats(min_value=0.0, max_value=2.0)),
        draw(st.integers(min_value=1, max_value=4)),
    )


operations = st.lists(
    st.one_of(
        st.tuples(st.just("observe"), st.floats(min_value=-1.0, max_value=12.0)),
        st.tuples(
            st.sampled_from(["escalate", "relax", "hold", "drop", "reenter"]),
            st.none(),
        ),
    ),
    max_size=60,
)


def build(spec):
    return Ladder(*spec)


def apply(ladder, op, score):
    """One operation; ``observe`` needs an in-service ladder."""
    if op == "observe":
        return ladder.observe(score)
    return getattr(ladder, op)()


def run(ladder, ops):
    """Apply ``ops`` (skipping observations while out of service)."""
    return [
        apply(ladder, op, score)
        for op, score in ops
        if not (op == "observe" and ladder.rung is None)
    ]


@given(ladder_specs(), operations)
@settings(max_examples=200, deadline=None)
def test_every_move_but_drop_and_reenter_is_one_rung(spec, ops):
    ladder = build(spec)
    rungs = spec[0]
    for op, score in ops:
        if op == "observe" and ladder.rung is None:
            continue
        before = ladder.rung
        move = apply(ladder, op, score)
        after = ladder.rung
        if op == "drop":
            assert after is None
        elif op == "reenter":
            assert after == rungs[-1]
        elif move is not None:
            assert abs(ladder.rank(after) - ladder.rank(before)) == 1
        if move is None:
            assert after == before
        else:
            assert move == (before, after) and before != after


@given(ladder_specs(), operations)
@settings(max_examples=200, deadline=None)
def test_observe_holds_inside_the_band(spec, ops):
    """``entry[i] - hysteresis <= score < entry[i + 1]`` keeps rung ``i``."""
    rungs, entry, hysteresis, _recovery = spec
    ladder = build(spec)
    for op, score in ops:
        if ladder.rung is None:
            ladder.reenter()
        if op != "observe":
            apply(ladder, op, score)
            continue
        before = ladder.rung
        i = ladder.rank(before)
        low = entry[before] - hysteresis if i > 0 else -math.inf
        high = entry[rungs[i + 1]] if i + 1 < len(rungs) else math.inf
        move = ladder.observe(score)
        if low <= score < high:
            assert move is None and ladder.streak == 0
        elif score >= high:
            assert move == (before, rungs[i + 1])
        else:
            assert move in (None, (before, rungs[i - 1]))


@given(ladder_specs(), operations)
@settings(max_examples=200, deadline=None)
def test_relax_needs_recovery_consecutive_requests(spec, ops):
    """A reference count of relax requests predicts every step down; an
    escalation, a hold or an in-band observation resets it."""
    rungs, entry, hysteresis, recovery = spec
    ladder = build(spec)
    count = 0
    for op, score in ops:
        if op == "observe" and ladder.rung is None:
            continue
        before = ladder.rung
        i = None if before is None else ladder.rank(before)
        relaxing = op == "relax"
        if op == "observe":
            escalating = i + 1 < len(rungs) and score >= entry[rungs[i + 1]]
            relaxing = not escalating and i > 0 and score < entry[before] - hysteresis
        move = apply(ladder, op, score)
        if relaxing and before is not None:
            count += 1
            steps_down = i > 0 and count >= recovery
            assert (move is not None) == steps_down
            if steps_down:
                assert move == (before, rungs[i - 1])
                count = 0
        elif relaxing:
            assert move is None  # out of service: the request is ignored
        else:
            count = 0
        assert ladder.streak == count


@given(ladder_specs(), operations, operations)
@settings(max_examples=100, deadline=None)
def test_restore_round_trips(spec, prefix, suffix):
    ladder = build(spec)
    run(ladder, prefix)
    clone = build(spec)
    clone.restore(ladder.rung, ladder.streak)
    assert (clone.rung, clone.streak) == (ladder.rung, ladder.streak)
    assert run(clone, suffix) == run(ladder, suffix)
    assert (clone.rung, clone.streak) == (ladder.rung, ladder.streak)


def test_restore_rejects_an_unknown_rung():
    with pytest.raises(ValueError, match="not a rung"):
        Ladder(["calm", "hot"]).restore("melted")


def test_enum_definition_order_is_ladder_order():
    """Each supervisor's rungs are its public enum in definition order."""
    assert [s.value for s in ThermalState] == [
        "normal", "warn", "throttle", "shed", "trip",
    ]
    assert [s.value for s in EstimatorState] == [
        "healthy", "frozen", "margin", "fallback",
    ]
    assert [s.value for s in AdmissionState] == [
        "open", "degraded", "queue", "shed", "reject",
    ]
    assert [s.value for s in WatchdogState] == ["healthy", "safe-mode"]
    thermal = ThermalSupervisor(ThermalProtectionConfig())
    estimator = EstimatorSupervisor(EstimationConfig(), {"big": 8.0})
    assert thermal._new_ladder().rungs == tuple(ThermalState)
    assert estimator._ladder.rungs == tuple(EstimatorState)
    assert AdmissionController()._ladder.rungs == tuple(AdmissionState)
    assert MarketWatchdog()._ladder.rungs == tuple(WatchdogState)
