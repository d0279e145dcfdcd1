"""Admission ladder: one rung per check, hysteresis, snapshot fidelity.

Property tests drive :meth:`AdmissionController.evaluate_ladder` -- the
exact transition logic the simulation uses -- with arbitrary pressure
sequences, mirroring the thermal supervisor's ladder tests.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    AdmissionConfig,
    AdmissionController,
    AdmissionState,
    OverloadManager,
)
from repro.experiments.harness import make_governor
from repro.experiments.overload import OVERLOAD_TDP_W, build_overload_arrivals
from repro.hw import tc2_chip
from repro.sim import SimConfig, Simulation
from repro.tasks import ArrivalRecord, ArrivalStream, build_workload

#: Ladder order is the enum's definition order, calmest first.
RUNGS = list(AdmissionState)


def make_record(index=1, priority=2, arrival_s=0.0):
    return ArrivalRecord(
        name=f"arr{index}.h264_s",
        benchmark="h264",
        input_code="s",
        priority=priority,
        arrival_s=arrival_s,
        lifetime_s=3.0,
        phase_offset_s=0.0,
    )


pressures = st.lists(
    st.floats(min_value=0.0, max_value=5.0), min_size=1, max_size=60
)


class TestLadderProperties:
    @settings(max_examples=100, deadline=None)
    @given(sequence=pressures)
    def test_never_skips_a_rung(self, sequence):
        controller = AdmissionController()
        rank = RUNGS.index(controller.state)
        for i, pressure in enumerate(sequence):
            controller.evaluate_ladder(float(i), pressure)
            new_rank = RUNGS.index(controller.state)
            assert abs(new_rank - rank) <= 1
            rank = new_rank

    @settings(max_examples=100, deadline=None)
    @given(sequence=pressures)
    def test_hysteresis_ordering(self, sequence):
        """Escalate only at the next rung's entry threshold; de-escalate
        only once pressure undercuts the current entry by the hysteresis."""
        config = AdmissionConfig()
        controller = AdmissionController(config)
        entry = {
            AdmissionState.DEGRADED: config.degrade_at,
            AdmissionState.QUEUE: config.queue_at,
            AdmissionState.SHED: config.shed_at,
            AdmissionState.REJECT: config.reject_at,
        }
        for i, pressure in enumerate(sequence):
            before = controller.state
            after = controller.evaluate_ladder(float(i), pressure)
            rank, new_rank = RUNGS.index(before), RUNGS.index(after)
            if new_rank > rank:
                assert pressure >= entry[after]
            elif new_rank < rank:
                assert pressure < entry[before] - config.hysteresis
            else:
                up = rank + 1 < len(RUNGS) and pressure >= entry[RUNGS[rank + 1]]
                down = rank > 0 and pressure < entry[before] - config.hysteresis
                assert not up and not down

    @settings(max_examples=50, deadline=None)
    @given(sequence=pressures)
    def test_transitions_log_matches_states(self, sequence):
        controller = AdmissionController()
        for i, pressure in enumerate(sequence):
            controller.evaluate_ladder(float(i), pressure)
        state = AdmissionState.OPEN
        for _t, frm, to, _p in controller.transitions:
            assert frm == state.value
            state = AdmissionState(to)
        assert state is controller.state

    def test_full_escalation_takes_one_check_per_rung(self):
        controller = AdmissionController()
        states = [
            controller.evaluate_ladder(float(i), 10.0) for i in range(4)
        ]
        assert states == [
            AdmissionState.DEGRADED,
            AdmissionState.QUEUE,
            AdmissionState.SHED,
            AdmissionState.REJECT,
        ]
        # Calm pressure walks it all the way back down, one per check.
        states = [
            controller.evaluate_ladder(float(4 + i), 0.0) for i in range(4)
        ]
        assert states[-1] is AdmissionState.OPEN


class TestPricing:
    def test_unit_price_is_excess_pressure(self):
        controller = AdmissionController()
        controller.evaluate_ladder(0.0, 0.8)
        assert controller.unit_price() == 0.0
        controller.evaluate_ladder(1.0, 1.6)
        assert controller.unit_price() == pytest.approx(0.6)

    def test_priority_buys_admission_deeper_into_overload(self):
        config = AdmissionConfig(budget_per_priority=0.25)
        controller = AdmissionController(config)
        controller.evaluate_ladder(0.0, 1.6)  # premium 0.6
        assert not controller._affords(make_record(priority=1))
        assert not controller._affords(make_record(priority=2))
        assert controller._affords(make_record(priority=4))


class TestQueueBounds:
    def test_queue_overflow_rejects(self):
        config = AdmissionConfig(queue_capacity=3)
        controller = AdmissionController(config)
        for i in range(5):
            controller._enqueue(make_record(index=i), now_s=0.0)
        assert controller.queue_depth == 3
        assert controller.queued == 3
        assert controller.rejected == 2
        assert controller.peak_queue_depth == 3

    def test_queue_entries_time_out(self):
        config = AdmissionConfig(queue_timeout_s=2.0)
        controller = AdmissionController(config)
        controller._enqueue(make_record(index=1), now_s=0.0)
        controller._enqueue(make_record(index=2), now_s=1.5)
        controller._expire_queue(now_s=2.0)
        assert controller.queue_timeouts == 1
        assert controller.queue_depth == 1


class TestConfigValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"check_period_s": 0.0},
            {"degrade_at": 1.1},  # breaks ascending order
            {"queue_at": 1.5},
            {"hysteresis": 0.0},
            {"queue_capacity": 0},
            {"queue_timeout_s": 0.0},
            {"drain_per_check": 0},
            {"degraded_qos_factor": 0.0},
            {"degraded_qos_factor": 1.5},
            {"budget_per_priority": -0.1},
            {"sheds_per_check": 0},
            {"thermal_surcharge": -0.5},
        ],
    )
    def test_bad_configs_raise(self, overrides):
        with pytest.raises(ValueError):
            AdmissionConfig(**overrides)


class TestSnapshot:
    def test_snapshot_restore_round_trips(self):
        controller = AdmissionController()
        for i, pressure in enumerate([0.5, 0.9, 1.3, 1.9, 2.6, 1.0]):
            controller.evaluate_ladder(float(i), pressure)
        controller._enqueue(make_record(index=1), now_s=4.0)
        controller._enqueue(make_record(index=2), now_s=5.0)
        controller.admission_latencies.extend([0.1, 0.4])
        controller.shed_names.append("arr9.h264_s")
        state = json.loads(json.dumps(controller.snapshot_state()))
        restored = AdmissionController()
        restored.restore_state(state)
        assert restored.snapshot_state() == controller.snapshot_state()
        assert restored.state is controller.state
        assert restored.queue_depth == controller.queue_depth


class WalkCheckingController(AdmissionController):
    """Holds each shed to the walk over every task the stream spawned."""

    def __init__(self):
        super().__init__(AdmissionConfig())
        self.calls = 0
        self.walked = 0

    def _shed(self, sim, manager):
        walk = [t for t in manager.spawned_tasks if t.is_active(sim.now)]
        walk.sort(key=lambda t: (t.priority, -t.start_time, t.name))
        expected = [t.name for t in walk[: self.config.sheds_per_check]]
        before = len(self.shed_names)
        super()._shed(sim, manager)
        assert self.shed_names[before:] == expected
        self.calls += 1
        self.walked += len(manager.spawned_tasks)


class TestShed:
    def test_shed_picks_what_the_spawn_walk_picked(self):
        """A flash crowd on l1 (the ``overload_churn`` stream at seed 7)."""
        chip = tc2_chip()
        sim = Simulation(
            chip,
            build_workload("l1"),
            make_governor("PPM", power_cap_w=OVERLOAD_TDP_W),
            config=SimConfig(seed=7, metrics_warmup_s=15.0),
        )
        controller = WalkCheckingController()
        OverloadManager(
            ArrivalStream(build_overload_arrivals(chip, 60.0, 15.0), seed=7),
            controller,
        ).attach(sim)
        sim.run(60.0)
        assert controller.calls == 10
        assert controller.shed_tasks > 0
        assert controller.walked == 1128  # what the walk cost
