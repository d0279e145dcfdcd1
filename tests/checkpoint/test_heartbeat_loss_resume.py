"""Resuming inside a heartbeat-loss window must stay bit-exact.

A task inside a window has its heart-rate monitor held at the beat count
it saw when the window opened.  A checkpoint carries no record of which
tasks are held: the restored monitors hold those counts as their newest
samples, and the first resumed tick withholds every covered task again.
These tests cut a run inside a window and check that the resumed run
equals the uninterrupted one, in both tick loops, and with arrivals that
the restore re-materialises.
"""

import pytest

from repro.checkpoint import CheckpointManager, resume_from, tick_records
from repro.core import OverloadManager
from repro.experiments.harness import make_governor
from repro.faults import FaultInjector, FaultKind, single_fault
from repro.hw import tc2_chip
from repro.sim import SimConfig
from repro.sim.columnar import ColumnarSimulation
from repro.sim.engine import ObjectSimulation
from repro.tasks import ArrivalConfig, ArrivalStream, build_workload

DURATION_S = 7.0


def build_sim(engine, workload="m1", arrivals=False, window=(2.0, 3.0)):
    sim = engine(
        tc2_chip(),
        build_workload(workload),
        make_governor("PPM", power_cap_w=10.0),
        config=SimConfig(seed=11, metrics_warmup_s=1.0, audit=True),
    )
    if arrivals:
        crowd = ArrivalConfig(
            process="flash-crowd",
            rate_hz=2.0,
            burst_rate_hz=12.0,
            burst_start_s=3.0,
            burst_duration_s=3.0,
            lifetime_s=(1.0, 3.0),
        )
        OverloadManager(ArrivalStream(crowd, 11)).attach(sim)
    start, duration = window
    FaultInjector(sim, single_fault(FaultKind.HEARTBEAT_LOSS, start, duration)).attach()
    return sim


def outcome(sim):
    return (
        tick_records(sim.metrics),
        sim.fault_injector.stats(),
        [(t.name, list(t.hrm._samples)) for t in sim.tasks],
    )


def resumed_matches_uninterrupted(tmp_path, factory, cut_index):
    baseline = factory()
    baseline.run(DURATION_S)
    checkpointed = factory()
    manager = CheckpointManager(str(tmp_path), interval_s=1.0, retention=None).attach(
        checkpointed
    )
    checkpointed.run(DURATION_S)
    resumed, envelope = resume_from(manager.checkpoints()[cut_index], factory)
    assert resumed.fault_injector.schedule.active(
        resumed.now, FaultKind.HEARTBEAT_LOSS
    ) is not None, "the cut must fall inside the window"
    resumed.run(DURATION_S - resumed.now)
    assert baseline.fault_injector.heartbeats_lost > 0
    assert outcome(resumed) == outcome(baseline)
    return resumed


@pytest.mark.parametrize("engine", [ObjectSimulation, ColumnarSimulation])
def test_resume_inside_window(tmp_path, engine):
    # Window at 2-5 s; the third checkpoint is the one at t = 3 s.
    resumed_matches_uninterrupted(tmp_path, lambda: build_sim(engine), cut_index=2)


@pytest.mark.parametrize("engine", [ObjectSimulation, ColumnarSimulation])
def test_resume_inside_window_with_arrivals(tmp_path, engine):
    # Wildcard window at 3.5-6.5 s through the crowd; cut at t = 5 s.
    resumed = resumed_matches_uninterrupted(
        tmp_path,
        lambda: build_sim(engine, "l1", arrivals=True, window=(3.5, 3.0)),
        cut_index=4,
    )
    # Arrivals re-materialised by the restore and live at the cut.
    assert any(
        t.start_time < 5.0 < t.start_time + t.duration
        for t in resumed.arrivals.spawned_tasks
    )
