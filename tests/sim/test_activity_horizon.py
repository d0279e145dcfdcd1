"""The activity horizon and the settled mark against a per-tick rescan.

``Simulation.active_tasks`` reuses one scan of the tasks not yet ended
until the next task start or end, and the settled mark lets
``_retire_inactive``, ``_ensure_placed`` and the object loop's dispatch
skip their per-task scans while the mapped tasks are exactly the active
ones.  Each example here runs one loop (object or columnar) and, on an
identical copy, a reference subclass of the same loop that rescans all
of ``sim.tasks`` on every call and never trusts the settled mark.
Hypothesis draws the task windows (staggered starts, finite and zero
lifetimes), arrivals mid-run (``sim.add_task``, starting then or later,
with any lifetime), tasks ended mid-run (``sim.end_task``), a task
placed before it starts, hotplug windows and a checkpoint restore
mid-run, which only the system under test takes.  On every tick the
active tasks must equal a fresh ``Task.is_active`` scan, and at the end
the tick records, the placement and the load dict (with its order) must
match the uninterrupted reference bit for bit.
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
from repro.tasks import build_workload, make_task

DT = 0.01
N_TASKS = 6  # every Table 6 set
#: tc2_chip() core order: big.0, big.1, little.0, little.1, little.2.
N_CORES = 5
#: (benchmark, input) pairs an arrival draws from.
ARRIVALS = [("x264", "l"), ("swaptions", "l"), ("blackscholes", "n")]


class _Rescan:
    """The engine without its horizon and settled mark."""

    def active_tasks(self):
        now = self.now
        active = tuple(t for t in self.tasks if t.is_active(now))
        return self.tasks if len(active) == len(self.tasks) else active

    def _settled_now(self):
        return False


class ObjectRescan(_Rescan, ObjectSimulation):
    pass


class ColumnarRescan(_Rescan, ColumnarSimulation):
    pass


REFERENCE = {ObjectSimulation: ObjectRescan, ColumnarSimulation: ColumnarRescan}


def _arrival(bench, name, start, duration):
    return make_task(*bench, task_name=name, start_time=start, duration=duration)


def _build(engine, spec, arrived=(), shed=()):
    """A fresh simulation of ``spec`` that has added the tasks ``arrived``.

    ``arrived`` holds :func:`_arrival` arguments, and ``shed`` holds
    (task index, duration) edits, applied before the tasks are added.
    """
    chip = tc2_chip()
    tasks = build_workload(spec["workload"])
    for task, (start, duration) in zip(tasks, spec["windows"]):
        task.start_time = start
        task.duration = duration
    arrivals = [_arrival(*args) for args in arrived]
    for i, duration in shed:
        (tasks + arrivals)[i].duration = duration
    sim = engine(
        chip,
        tasks,
        make_governor(spec["governor"], power_cap_w=8.0),
        config=SimConfig(dt=DT, seed=5, metrics_warmup_s=0.0),
    )
    if spec["preplaced"] is not None:
        index, core = spec["preplaced"]
        sim.place(tasks[index], chip.cores[core])
    for task in arrivals:
        sim.add_task(task)
    return sim


def _apply(sim, events, tick, arrived, shed):
    """Apply the drawn events for ``tick``, recording them for a rebuild."""
    for kind, arg in events.get(tick, ()):
        if kind == "arrive":
            bench, delay, duration = arg
            args = (bench, "arrival%d" % len(arrived), sim.now + delay, duration)
            arrived.append(args)
            sim.add_task(_arrival(*args))
        elif kind == "shed":
            if arg < len(sim.tasks):
                task = sim.tasks[arg]
                sim.end_task(task)
                shed.append((arg, task.duration))
        elif kind == "out":
            sim.hotplug_out(sim.chip.cluster(arg))
        else:
            sim.hotplug_in(sim.chip.cluster(arg))


def _run(engine, spec, ticks=None, restore=True):
    """Run ``ticks`` ticks of ``spec`` (default: all), checking the active list.

    ``restore``: restore from a snapshot at ``spec["restore_at"]``.
    """
    sim = _build(engine, spec)
    arrived = []
    shed = []
    events = spec["events"]
    for tick in range(spec["ticks"] if ticks is None else ticks):
        if restore and tick == spec["restore_at"]:
            payload = snapshot_simulation(sim)
            sim = _build(engine, spec, arrived, shed)
            restore_simulation(sim, payload)
        _apply(sim, events, tick, arrived, shed)
        now = sim.now
        assert list(sim.active_tasks()) == [t for t in sim.tasks if t.is_active(now)], (
            "stale active tasks at tick %d" % tick
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


def _lifetimes(ticks):
    return st.one_of(
        st.none(),
        st.just(0.0),
        st.floats(0.0, ticks * DT),
        st.integers(1, ticks).map(lambda k: k * DT),  # whole ticks
    )


@st.composite
def _windows(draw, ticks):
    start = draw(
        st.one_of(
            st.just(0.0),
            st.integers(0, ticks).map(lambda k: k * DT),  # on a tick, or close
            st.floats(0.0, ticks * DT),
        )
    )
    return start, draw(_lifetimes(ticks))


@st.composite
def _specs(draw):
    ticks = draw(st.integers(20, 90))
    windows = [draw(_windows(ticks)) for _ in range(N_TASKS)]
    late = [i for i, (start, _) in enumerate(windows) if start > 0.0]
    preplaced = None
    if late and draw(st.booleans()):
        preplaced = (draw(st.sampled_from(late)), draw(st.integers(0, N_CORES - 1)))
    events = {}
    n_arrivals = draw(st.integers(0, 3))
    for _ in range(n_arrivals):
        tick = draw(st.integers(0, ticks - 1))
        delay = draw(st.one_of(st.just(0.0), st.floats(0.0, ticks * DT)))
        arrival = (draw(st.sampled_from(ARRIVALS)), delay, draw(_lifetimes(ticks)))
        events.setdefault(tick, []).append(("arrive", arrival))
    for _ in range(draw(st.integers(0, 3))):
        tick = draw(st.integers(0, ticks - 1))
        task = draw(st.integers(0, N_TASKS + n_arrivals - 1))
        events.setdefault(tick, []).append(("shed", task))
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
#: placed early, a zero lifetime, ends on and between ticks, shed tasks
#: (one of them an arrival, one already ended), arrivals that start at
#: once, later and never, the big cluster unplugged over the preplaced
#: task's start, a restore while it is out that re-adds two arrivals, and
#: the LITTLE cluster unplugged after the last end, when only the
#: placement version can unsettle the engine.
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
        5: [("arrive", (("x264", "l"), 0.0, None))],
        10: [("shed", 5)],
        12: [("arrive", (("swaptions", "l"), 0.1, 0.15))],
        15: [("out", "big")],
        25: [("arrive", (("blackscholes", "n"), 0.0, 0.0))],
        30: [("in", "big")],
        35: [("shed", 6)],
        40: [("out", "little")],
        45: [("in", "little")],
        50: [("shed", 2)],
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
        # Three drawn lifetimes, two sheds and two arrival lifetimes.
        ends = [t.duration for t in sim.tasks if t.duration is not None]
        assert len(ends) == 7 and 0.0 in ends
        assert [t.name for t in sim.tasks[N_TASKS:]] == [
            "arrival0",
            "arrival1",
            "arrival2",
        ]
        assert sim._live == [t for t in sim.tasks if t.is_active(sim.now)]
