"""The engine's population seams: ``add_task``, ``end_task`` and ``sim.tasks``.

The population changes only through ``Simulation.add_task`` and
``Simulation.end_task``; ``sim.tasks`` is a tuple that ``add_task``
replaces.  ``active_tasks()`` hands out the engine's own tuple, the same
object until a seam call or the activity horizon, and a rescan walks only
the tasks that have not ended.  Every test runs on both tick loops.
"""

import re

import pytest

from repro.core import AdmissionConfig, AdmissionController, OverloadManager
from repro.core.framework import PPMGovernor
from repro.experiments.harness import make_governor
from repro.experiments.overload import OVERLOAD_TDP_W, build_overload_arrivals
from repro.hw import tc2_chip
from repro.sim import SimConfig
from repro.sim.columnar import ColumnarSimulation
from repro.sim.engine import ObjectSimulation
from repro.tasks import ArrivalStream, Task, build_workload, make_task

ENGINES = [ObjectSimulation, ColumnarSimulation]


def _sim(engine, tasks=None, governor="HL"):
    return engine(
        tc2_chip(),
        build_workload("l1") if tasks is None else tasks,
        make_governor(governor, power_cap_w=8.0),
        config=SimConfig(seed=1),
    )


def _run(sim, ticks):
    for _ in range(ticks):
        sim.step()


@pytest.mark.parametrize("engine", ENGINES)
def test_tasks_is_a_read_only_tuple(engine):
    sim = _sim(engine)
    assert isinstance(sim.tasks, tuple)
    assert not hasattr(sim.tasks, "append")
    with pytest.raises(AttributeError):
        sim.tasks = ()
    before = sim.tasks
    sim.add_task(make_task("x264", "l", task_name="late"))
    assert sim.tasks is not before and isinstance(sim.tasks, tuple)
    assert sim.tasks[:-1] == before and sim.tasks[-1].name == "late"


@pytest.mark.parametrize("engine", ENGINES)
def test_end_task_ends_a_task_now_and_keeps_an_earlier_end(engine):
    tasks = build_workload("l1")
    tasks[1].duration = 0.02
    sim = _sim(engine, tasks)
    _run(sim, 5)
    now = sim.now
    sim.end_task(tasks[0])
    assert tasks[0].duration == now - tasks[0].start_time
    assert tasks[0] not in sim.active_tasks()
    active = sim.active_tasks()
    sim.end_task(tasks[1])  # ended at 0.02
    assert tasks[1].duration == 0.02
    assert sim.active_tasks() is active
    late = make_task("x264", "l", task_name="late", start_time=now + 1.0)
    sim.add_task(late)
    sim.end_task(late)  # ends before it starts: it never runs
    assert late.duration == 0.0
    _run(sim, 120)
    assert not sim.placement.is_placed(late)
    gone = {"late", tasks[0].name}
    assert all(gone.isdisjoint(s.tasks) for s in sim.metrics.samples[5:])


@pytest.mark.parametrize("engine", ENGINES)
def test_active_tuple_is_shared_until_a_seam_call_or_the_horizon(engine):
    sim = _sim(engine)
    _run(sim, 3)
    every = sim.active_tasks()
    assert every is sim.tasks
    _run(sim, 3)
    assert sim.active_tasks() is every
    # Every task was active: the addition still hands out a new tuple.
    sim.add_task(make_task("x264", "l", task_name="now", start_time=sim.now))
    added = sim.active_tasks()
    assert added is not every and added is sim.tasks and len(added) == len(every) + 1
    sim.end_task(sim.tasks[0])
    ended = sim.active_tasks()
    assert ended is not added and ended == sim.tasks[1:]
    _run(sim, 2)
    assert sim.active_tasks() is ended
    # A later start is the horizon: the tuple holds until then.
    start = sim.now + 0.05
    sim.add_task(make_task("swaptions", "l", task_name="later", start_time=start))
    waiting = sim.active_tasks()
    assert waiting == ended
    while sim.now < start:
        assert sim.active_tasks() is waiting
        sim.step()
    assert sim.active_tasks() is not waiting
    assert sim.active_tasks()[-1].name == "later"


@pytest.mark.parametrize("engine", ENGINES)
def test_duplicate_names_raise_at_the_seams(engine):
    tasks = [
        make_task("x264", "l", task_name="enc"),
        make_task("swaptions", "l", task_name="enc"),
    ]
    with pytest.raises(ValueError, match="'enc'"):
        engine(tc2_chip(), tasks, PPMGovernor(), config=SimConfig(seed=1))
    sim = _sim(engine)
    before = sim.tasks
    name = before[0].name
    with pytest.raises(ValueError, match=re.escape(repr(name))):
        sim.add_task(make_task("swaptions", "l", task_name=name))
    assert sim.tasks is before


@pytest.mark.parametrize("engine", ENGINES)
def test_an_addition_joins_the_market_at_the_next_bid_period(engine):
    sim = _sim(engine, governor="PPM")
    governor = sim.governor
    _run(sim, 100)
    assert sim.active_tasks() is sim.tasks
    assert set(governor.market.tasks) == {t.name for t in sim.tasks}
    sim.add_task(make_task("x264", "l", task_name="arrival", start_time=sim.now))
    bid = governor._next_bid_time
    while sim.now + 1e-9 < bid:
        sim.step()
        assert "arrival" not in governor.market.tasks
    sim.step()
    assert "arrival" in governor.market.tasks


@pytest.mark.parametrize("engine", ENGINES)
def test_a_task_placed_before_its_start_joins_the_market_when_it_starts(engine):
    # Only the active tuple's identity tells PPM's mirror about the start:
    # the placement, the market and the population stay as they were.
    sim = _sim(engine, governor="PPM")
    governor = sim.governor
    _run(sim, 100)
    start = sim.now + 0.1
    sim.add_task(make_task("x264", "l", task_name="late", start_time=start))
    sim.place(sim.tasks[-1], sim.chip.core("little.0"))
    while sim.now < start:
        sim.step()
        assert "late" not in governor.market.tasks
    version = sim.placement.version
    bid = governor._next_bid_time
    while sim.now + 1e-9 < bid:
        sim.step()
    sim.step()
    assert sim.placement.version == version
    assert "late" in governor.market.tasks


class _StartTimes:
    """``Task.start_time`` as a data descriptor that notes each read task."""

    def __init__(self):
        self.values = {}
        self.reads = None

    def __get__(self, task, owner):
        if task is None:
            return self
        if self.reads is not None:
            self.reads.append(task)
        return self.values[task]

    def __set__(self, task, value):
        self.values[task] = value


class _WalkRecorder:
    """Records each rescan's walk (the tasks whose start it read) and the
    walked tasks it found ended."""

    def active_tasks(self):
        self.start_times.reads = walked = []
        try:
            return super().active_tasks()
        finally:
            self.start_times.reads = None
            if walked:
                now = self.now
                gone = [
                    t for t in walked
                    if t.duration is not None and now >= t.start_time + t.duration
                ]
                self.walks.append((now, walked, gone))


class ObjectWalkRecorder(_WalkRecorder, ObjectSimulation):
    pass


class ColumnarWalkRecorder(_WalkRecorder, ColumnarSimulation):
    pass


@pytest.mark.parametrize("engine", [ObjectWalkRecorder, ColumnarWalkRecorder])
def test_no_rescan_walks_an_ended_task_in_a_flash_crowd(engine, monkeypatch):
    start_times = _StartTimes()
    monkeypatch.setattr(Task, "start_time", start_times, raising=False)
    chip = tc2_chip()
    duration_s, warmup_s = 20.0, 5.0
    sim = engine(
        chip,
        build_workload("l1"),
        make_governor("PPM", power_cap_w=OVERLOAD_TDP_W),
        config=SimConfig(seed=7, metrics_warmup_s=warmup_s),
    )
    sim.start_times = start_times
    sim.walks = []
    manager = OverloadManager(
        ArrivalStream(build_overload_arrivals(chip, duration_s, warmup_s), seed=7),
        AdmissionController(AdmissionConfig()),
    ).attach(sim)
    sim.run(duration_s)
    assert manager.controller.shed_tasks > 0
    ended = set()  # tasks an earlier rescan found ended
    for now, walked, gone in sim.walks:
        assert ended.isdisjoint(walked), "a rescan at t=%.2f walked an ended task" % now
        ended.update(gone)
    assert ended
    assert max(len(walked) for _, walked, _ in sim.walks) < len(sim.tasks)
