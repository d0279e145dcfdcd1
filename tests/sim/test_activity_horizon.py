"""The activity horizon and the settled mark against a per-tick rescan.

``Simulation._active_now`` reuses one scan of ``sim.tasks`` until the
next task start or end, and the settled mark lets ``_retire_inactive``,
``_ensure_placed`` and the object loop's dispatch skip their per-task
scans while the mapped tasks are exactly the active ones.  Each example
here runs one loop (object or columnar) and, on an identical copy, a
reference subclass of the same loop that rescans on every call and never
trusts the settled mark.  Hypothesis draws the task windows (staggered
starts, finite and zero lifetimes), tasks shed mid-run (``duration``
shortened, then ``invalidate_task_cache``), a task placed before it
starts, hotplug windows and a checkpoint restore mid-run, which only the
system under test takes.  On every tick the active list must equal a
fresh ``Task.is_active`` scan, and at the end the tick records, the
placement and the load dict (with its order) must match the
uninterrupted reference bit for bit.
"""

import json
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.checkpoint import restore_simulation, snapshot_simulation, tick_records
from repro.experiments.harness import make_governor
from repro.hw import tc2_chip
from repro.sim import SimConfig
from repro.sim.columnar import ColumnarSimulation
from repro.sim.engine import ObjectSimulation
from repro.tasks import build_workload

DT = 0.01
N_TASKS = 6  # every Table 6 set
#: tc2_chip() core order: big.0, big.1, little.0, little.1, little.2.
N_CORES = 5


class _Rescan:
    """The engine without its horizon and settled mark."""

    def _active_now(self):
        now = self.now
        active = [t for t in self.tasks if t.is_active(now)]
        return self.tasks if len(active) == len(self.tasks) else active

    def _settled_now(self):
        return False


class ObjectRescan(_Rescan, ObjectSimulation):
    pass


class ColumnarRescan(_Rescan, ColumnarSimulation):
    pass


REFERENCE = {ObjectSimulation: ObjectRescan, ColumnarSimulation: ColumnarRescan}


def _build(engine, spec, shed=()):
    """A fresh simulation of ``spec``; ``shed`` holds (task index, duration) edits."""
    chip = tc2_chip()
    tasks = build_workload(spec["workload"])
    for task, (start, duration) in zip(tasks, spec["windows"]):
        task.start_time = start
        task.duration = duration
    for i, duration in shed:
        tasks[i].duration = duration
    sim = engine(
        chip,
        tasks,
        make_governor(spec["governor"], power_cap_w=8.0),
        config=SimConfig(dt=DT, seed=5, metrics_warmup_s=0.0),
    )
    if spec["preplaced"] is not None:
        index, core = spec["preplaced"]
        sim.place(tasks[index], chip.cores[core])
    return sim


def _apply(sim, events, tick, shed):
    """Apply the drawn events for ``tick``; record sheds in ``shed``."""
    for kind, arg in events.get(tick, ()):
        if kind == "shed":
            task = sim.tasks[arg]
            if task.is_active(sim.now):  # as AdmissionController._shed does
                task.duration = max(0.0, sim.now - task.start_time)
                shed.append((arg, task.duration))
                sim.invalidate_task_cache()
        elif kind == "out":
            sim.hotplug_out(sim.chip.cluster(arg))
        else:
            sim.hotplug_in(sim.chip.cluster(arg))


def _run(engine, spec, ticks=None, restore=True):
    """Run ``ticks`` ticks of ``spec`` (default: all), checking the active list.

    ``restore``: restore from a snapshot at ``spec["restore_at"]``.
    """
    sim = _build(engine, spec)
    shed = []
    events = spec["events"]
    for tick in range(spec["ticks"] if ticks is None else ticks):
        if restore and tick == spec["restore_at"]:
            payload = snapshot_simulation(sim)
            sim = _build(engine, spec, shed)
            restore_simulation(sim, payload)
        _apply(sim, events, tick, shed)
        now = sim.now
        assert sim._active_now() == [t for t in sim.tasks if t.is_active(now)], (
            "stale active list at tick %d" % tick
        )
        sim.step()
    sim.sync()
    return sim


def _state(sim):
    # JSON keeps every float's repr, so -0.0 and 0.0 differ too.
    records = json.dumps(tick_records(sim.metrics), sort_keys=True)
    placement = [
        (core.core_id, [t.name for t in sim.placement.iter_tasks_on_core(core)])
        for core in sim.chip.cores
    ]
    loads = [(t.name, v.hex()) for t, v in sim.load_tracker._load.items()]
    return records, placement, loads


@st.composite
def _windows(draw, ticks):
    end_s = ticks * DT
    start = draw(
        st.one_of(
            st.just(0.0),
            st.integers(0, ticks).map(lambda k: k * DT),  # on a tick, or close
            st.floats(0.0, end_s),
        )
    )
    duration = draw(
        st.one_of(
            st.none(),
            st.just(0.0),
            st.floats(0.0, end_s),
            st.integers(1, ticks).map(lambda k: k * DT),  # whole ticks
        )
    )
    return start, duration


@st.composite
def _specs(draw):
    ticks = draw(st.integers(20, 90))
    windows = [draw(_windows(ticks)) for _ in range(N_TASKS)]
    late = [i for i, (start, _) in enumerate(windows) if start > 0.0]
    preplaced = None
    if late and draw(st.booleans()):
        preplaced = (draw(st.sampled_from(late)), draw(st.integers(0, N_CORES - 1)))
    events = {}
    for _ in range(draw(st.integers(0, 3))):
        tick = draw(st.integers(0, ticks - 1))
        events.setdefault(tick, []).append(("shed", draw(st.integers(0, N_TASKS - 1))))
    for _ in range(draw(st.integers(0, 2))):
        cluster = draw(st.sampled_from(["big", "little"]))
        out = draw(st.integers(0, ticks - 1))
        events.setdefault(out, []).append(("out", cluster))
        back = out + draw(st.integers(1, 30))
        events.setdefault(back, []).append(("in", cluster))
    return {
        "engine": draw(st.sampled_from([ObjectSimulation, ColumnarSimulation])),
        "workload": draw(st.sampled_from(["l1", "m1", "m2", "h2"])),
        "governor": draw(st.sampled_from(["PPM", "HPM", "HL"])),
        "ticks": ticks,
        "windows": windows,
        "preplaced": preplaced,
        "events": events,
        "restore_at": draw(st.one_of(st.none(), st.integers(1, ticks - 1))),
    }


#: A pinned example that reaches every drawn case: a staggered start
#: placed early, a zero lifetime, ends on and between ticks, a shed task,
#: the big cluster unplugged over the preplaced task's start, a restore
#: while it is out, and the LITTLE cluster unplugged after the last end,
#: when only the placement version can unsettle the engine.
MIXED = {
    "engine": ObjectSimulation,
    "workload": "m1",
    "governor": "HL",
    "ticks": 60,
    "windows": [
        (0.0, None),
        (0.2, None),
        (0.0, 0.35),
        (0.1, 0.0),
        (0.155, 0.2),
        (0.0, None),
    ],
    "preplaced": (1, 1),
    "events": {
        10: [("shed", 5)],
        15: [("out", "big")],
        30: [("in", "big")],
        40: [("out", "little")],
        45: [("in", "little")],
    },
    "restore_at": 20,
}


class TestActivityHorizon:
    @settings(max_examples=100, deadline=None)
    @given(spec=_specs())
    @example(spec=MIXED)
    @example(spec=dict(MIXED, engine=ColumnarSimulation))
    def test_matches_per_tick_rescan(self, spec):
        engine = spec["engine"]
        sim = _run(engine, spec)
        reference = _run(REFERENCE[engine], spec, restore=False)
        assert _state(sim) == _state(reference)

    def test_mixed_example_reaches_every_case(self):
        sim = _run(ObjectSimulation, MIXED, ticks=15)
        late = sim.tasks[1]
        assert sim.placement.core_of(late) is sim.chip.core("big.1")
        assert not late.is_active(sim.now)
        sim = _run(ObjectSimulation, MIXED, ticks=40)
        assert sim._horizon == math.inf
        little = sim.chip.cluster("little")
        assert any(t.is_active(sim.now) for t in sim.placement.tasks_on_cluster(little))
        ends = [t.duration for t in sim.tasks if t.duration is not None]
        assert len(ends) == 4 and 0.0 in ends  # three drawn lifetimes, one shed
