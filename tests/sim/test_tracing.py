"""Unit and integration tests for event tracing."""

import json

import pytest

from repro.governors import BaseGovernor, MaxFrequencyGovernor
from repro.hw import tc2_chip
from repro.sim import SimConfig, Simulation, TraceEvent, Tracer, attach_tracer
from repro.tasks import make_task


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
