"""Unit and integration tests for event tracing."""

import json

import pytest

from repro.experiments.harness import make_governor
from repro.faults import FaultInjector, FaultKind, single_fault
from repro.governors import BaseGovernor, MaxFrequencyGovernor
from repro.hw import tc2_chip
from repro.sim import SimConfig, Simulation, TraceEvent, Tracer, attach_tracer
from repro.tasks import build_workload, make_task


class TestTracer:
    def test_record_and_query(self):
        tracer = Tracer()
        tracer.record(1.0, "dvfs", "big", to_index=3)
        tracer.record(2.0, "migration", "t1", inter_cluster=True)
        assert len(tracer) == 2
        assert tracer.count("dvfs") == 1
        assert tracer.events(kind="migration")[0].subject == "t1"
        assert tracer.events(since=1.5)[0].kind == "migration"
        assert tracer.events(subject="big")[0].detail["to_index"] == 3

    def test_capacity_drops_oldest(self):
        tracer = Tracer(capacity=2)
        for i in range(5):
            tracer.record(float(i), "k", "s")
        assert len(tracer) == 2
        assert tracer.dropped == 3
        assert tracer.events()[0].time_s == 3.0

    def test_full_tracer_keeps_newest_capacity_events(self):
        capacity, extra = 50, 7
        tracer = Tracer(capacity=capacity)
        for i in range(capacity + extra):
            tracer.record(float(i), "k", "s")
        assert tracer.dropped == extra
        assert [e.time_s for e in tracer.events()] == [
            float(i) for i in range(extra, capacity + extra)
        ]

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_jsonl_roundtrip(self):
        tracer = Tracer()
        tracer.record(0.5, "dvfs", "little", to_mhz=700.0)
        lines = tracer.to_jsonl().splitlines()
        parsed = json.loads(lines[0])
        assert parsed["kind"] == "dvfs"
        assert parsed["detail"]["to_mhz"] == 700.0

    def test_write_jsonl(self, tmp_path):
        tracer = Tracer()
        tracer.record(0.0, "a", "b")
        path = tmp_path / "trace.jsonl"
        assert tracer.write_jsonl(str(path)) == 1
        assert json.loads(path.read_text())["kind"] == "a"


class TestAttachTracer:
    def test_dvfs_events_traced(self):
        task = make_task("swaptions", "l")
        sim = Simulation(tc2_chip(), [task], MaxFrequencyGovernor(), config=SimConfig())
        tracer = attach_tracer(sim)
        sim.run(0.1)
        dvfs = tracer.events(kind="dvfs")
        assert dvfs
        assert dvfs[0].subject in {"big", "little"}

    def test_migration_events_traced(self):
        task = make_task("swaptions", "l")
        sim = Simulation(tc2_chip(), [task], BaseGovernor(), config=SimConfig())
        tracer = attach_tracer(sim)
        sim.run(0.02)
        sim.migrate(task, sim.chip.core("big.0"))
        events = tracer.events(kind="migration")
        assert len(events) == 1
        assert events[0].detail["inter_cluster"] is True
        assert events[0].detail["destination"] == "big.0"

    def test_failed_migration_not_traced(self):
        task = make_task("swaptions", "l")
        sim = Simulation(tc2_chip(), [task], BaseGovernor(), config=SimConfig())
        tracer = attach_tracer(sim)
        sim.run(0.02)
        source = sim.placement.core_of(task)
        sim.hotplug_out(sim.chip.cluster("big"))
        record = sim.migrate(task, sim.chip.core("big.0"))
        assert record.failed and sim.failed_migrations == 1
        assert sim.placement.core_of(task) is source
        assert tracer.count("migration") == 0

    def test_second_attach_rejected(self):
        sim = Simulation(tc2_chip(), [], BaseGovernor(), config=SimConfig())
        tracer = attach_tracer(sim)
        with pytest.raises(RuntimeError):
            attach_tracer(sim)
        sim.request_level(sim.chip.cluster("big"), 1)
        assert tracer.count("dvfs") == 1

    def test_power_gating_traced(self):
        task = make_task("swaptions", "l")
        sim = Simulation(tc2_chip(), [task], BaseGovernor(), config=SimConfig())
        tracer = attach_tracer(sim)
        sim.run(0.05)  # big cluster auto-gates off (no tasks)
        gates = tracer.events(kind="power_gate", subject="big")
        assert gates and gates[0].detail["powered"] is False

    def test_noop_requests_not_traced(self):
        sim = Simulation(tc2_chip(), [], BaseGovernor(), config=SimConfig())
        tracer = attach_tracer(sim)
        sim.request_level(sim.chip.cluster("big"), 0)  # already there
        assert tracer.count("dvfs") == 0

    def test_attaches_the_tracer_it_is_given(self):
        # An empty Tracer is falsy (``__len__``); it must still be used.
        tracer = Tracer(capacity=10)
        sim = Simulation(tc2_chip(), [], BaseGovernor(), config=SimConfig())
        assert attach_tracer(sim, tracer) is tracer
        sim.request_level(sim.chip.cluster("big"), 1)
        assert tracer.count("dvfs") == 1


class TestTraceRecordsWhatTookEffect:
    def test_power_up_of_unplugged_cluster_not_traced(self):
        sim = Simulation(tc2_chip(), [], BaseGovernor(), config=SimConfig())
        tracer = attach_tracer(sim)
        big = sim.chip.cluster("big")
        sim.hotplug_out(big)
        sim.power_up(big)  # refused: hot-unplugged hardware stays off
        assert not big.powered
        gates = tracer.events(kind="power_gate", subject="big")
        assert [e.detail["powered"] for e in gates] == [False]

    def test_thermal_ceiling_drop_traced(self):
        sim = Simulation(tc2_chip(), [], BaseGovernor(), config=SimConfig())
        tracer = attach_tracer(sim)
        big = sim.chip.cluster("big")
        sim.request_level(big, big.vf_table.max_index)
        sim.run(0.05)
        sim.set_level_ceiling(big, 0)
        assert big.regulator.target_index == 0
        last = tracer.events(kind="dvfs", subject="big")[-1]
        assert last.detail["to_index"] == 0
        assert last.detail["from_index"] == big.vf_table.max_index


def _attach_both(sim, schedule, tracer_first):
    """Attach a tracer and a fault injector in the given order."""
    if tracer_first:
        tracer = attach_tracer(sim)
        return tracer, FaultInjector(sim, schedule).attach()
    injector = FaultInjector(sim, schedule).attach()
    return attach_tracer(sim), injector


def _traced_h2_run(kind, tracer_first):
    """h2 under PPM at 4 W with one wildcard DVFS fault window at 1-5 s."""
    sim = Simulation(
        tc2_chip(),
        build_workload("h2"),
        make_governor("PPM", power_cap_w=4.0),
        config=SimConfig(seed=5),
    )
    tracer, injector = _attach_both(sim, single_fault(kind, 1.0, 4.0), tracer_first)
    sim.run(8.0)
    return tracer, injector


class TestTraceUnderDvfsFaults:
    @pytest.mark.parametrize("kind", [FaultKind.DVFS_DROP, FaultKind.DVFS_DELAY])
    def test_trace_does_not_depend_on_attach_order(self, kind):
        first, _ = _traced_h2_run(kind, tracer_first=True)
        second, _ = _traced_h2_run(kind, tracer_first=False)
        assert first.count("dvfs") > 0
        assert first.to_jsonl() == second.to_jsonl()

    def test_dropped_writes_leave_no_event(self):
        tracer, injector = _traced_h2_run(FaultKind.DVFS_DROP, tracer_first=False)
        window = injector.schedule.events[0]
        assert injector.dvfs_dropped > 0
        assert tracer.count("dvfs") > 0  # outside the window
        assert [e for e in tracer.events(kind="dvfs") if window.active_at(e.time_s)] == []

    @pytest.mark.parametrize("tracer_first", [True, False])
    def test_delayed_write_traced_when_it_lands(self, tracer_first):
        sim = Simulation(tc2_chip(), [], BaseGovernor(), config=SimConfig())
        schedule = single_fault(FaultKind.DVFS_DELAY, 0.0, 10.0, delay_ticks=3)
        tracer, _ = _attach_both(sim, schedule, tracer_first)
        big = sim.chip.cluster("big")
        sim.run(0.05)
        requested_at = sim.tick_index
        assert sim.request_level(big, 2)
        for _ in range(3):
            sim.step()
        assert tracer.count("dvfs") == 0 and big.regulator.target_index == 0
        sim.step()  # the write lands at the top of this tick
        (event,) = tracer.events(kind="dvfs")
        assert event.detail["to_index"] == 2
        assert event.time_s == pytest.approx((requested_at + 3) * sim.dt)
