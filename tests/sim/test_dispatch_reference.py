"""The object loop's fused dispatch pass against its reference.

``Simulation._dispatch`` inlines ``Task.consume`` and
``LoadTracker.update`` for every runnable task.  Each example here runs
one ``_dispatch()`` on an :class:`ObjectSimulation`, and the reference
on an identical copy: ``compute_grants`` per core, then ``Task.consume``
and ``LoadTracker.update`` for each runnable task, ``Task.idle_tick`` and
``LoadTracker.update`` for each frozen task, and ``Task.idle_tick`` for
each active unplaced task, in that order.  Every output must match bit
for bit: task attributes, heart-rate samples, the load dict with its
insertion order, and core utilisations.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.governors import MaxFrequencyGovernor
from repro.hw import tc2_chip
from repro.sim import SimConfig
from repro.sim.engine import ObjectSimulation
from repro.sim.scheduler import compute_grants
from repro.tasks import (
    ANY_CORE_TYPE,
    BenchmarkProfile,
    ConstantPhase,
    HeartRateRange,
    PiecewisePhases,
    SinusoidalPhases,
    SquareWavePhases,
    Task,
)

#: tc2_chip() core order: big.0, big.1, little.0, little.1, little.2.
N_CORES = 5


def _reference_dispatch(sim):
    """The dispatch pass as separate calls, in the object loop's order."""
    dt, now = sim.config.dt, sim.now
    placement, tracker = sim.placement, sim.load_tracker
    for cluster in sim.chip.clusters:
        core_type = cluster.core_type
        for core in cluster.cores:
            mapped = placement.iter_tasks_on_core(core)
            active = [t for t in mapped if t.is_active(now)]
            runnable = [t for t in active if t.frozen_until <= now]
            frozen = [t for t in active if t.frozen_until > now]
            grants = compute_grants(
                core.supply_pus, runnable, sim._allocations, sim._weights
            )
            consumed_total = 0.0
            for task in runnable:
                granted = grants.get(task, 0.0)
                consumed_total += task.consume(granted, core_type, now, dt)
                tracker.update(task, granted, task.true_demand_pus(core_type, now), dt)
            for task in frozen:
                task.idle_tick(now, dt)
                tracker.update(task, 0.0, task.true_demand_pus(core_type, now), dt)
            if mapped and core.supply_pus > 0.0:
                core.utilization = min(1.0, consumed_total / core.supply_pus)
            else:
                core.utilization = 0.0
    for task in sim.tasks:
        if task.is_active(now) and not placement.is_placed(task):
            task.idle_tick(now, dt)


def _build(spec):
    """A simulation in the state ``spec`` describes, ready to dispatch."""
    chip = tc2_chip()
    now, dt = spec["now"], spec["dt"]
    tasks = [
        Task(
            ts["profile"],
            name="t%d" % i,
            start_time=ts["start_time"],
            duration=ts["duration"],
        )
        for i, ts in enumerate(spec["tasks"])
    ]
    sim = ObjectSimulation(
        chip, tasks, MaxFrequencyGovernor(), config=SimConfig(dt=dt)
    )
    sim.now = now
    for cluster, level in zip(chip.clusters, spec["levels"]):
        cluster.regulator.level_index = cluster.vf_table.clamp_index(level)
    cores = chip.cores
    for core in cores:
        core.utilization = 0.5  # the pass must overwrite every core
    for task, ts in zip(tasks, spec["tasks"]):
        task.frozen_until = ts["frozen_until"]
        task.total_beats = ts["beats"]
        task.total_work_pu_s = 2.0 * ts["beats"]
        if ts["hrm"]:
            task.hrm.record(max(0.0, now - 0.3), 0.5 * ts["beats"])
            task.hrm.record(now, ts["beats"])
        if ts["core"] is not None:
            sim.place(task, cores[ts["core"]])
        if ts["allocation"] is not None:
            sim.set_allocation(task, ts["allocation"])
        if ts["weight"] is not None:
            sim.set_weight(task, ts["weight"])
    for i in spec["load_order"]:
        if spec["tasks"][i]["load"] is not None:
            sim.load_tracker._load[tasks[i]] = spec["tasks"][i]["load"]
    if spec["gated"] is not None:
        sim.power_down(chip.cluster(spec["gated"]))
    return sim


def _bits(value):
    return value.hex() if isinstance(value, float) else value


def _state(sim):
    tasks = [
        (
            t.name,
            _bits(t.total_beats),
            _bits(t.total_work_pu_s),
            _bits(t.last_supply_pus),
            _bits(t.last_consumed_pus),
            [(_bits(ts), _bits(b)) for ts, b in t.hrm._samples],
        )
        for t in sim.tasks
    ]
    loads = [(t.name, _bits(v)) for t, v in sim.load_tracker._load.items()]
    utilization = [(c.core_id, _bits(c.utilization)) for c in sim.chip.cores]
    return tasks, loads, utilization


_MULT = st.floats(0.25, 2.0)
_PHASES = st.one_of(
    st.builds(ConstantPhase, _MULT),
    st.builds(
        PiecewisePhases,
        st.lists(st.tuples(st.floats(0.05, 2.0), _MULT), min_size=1, max_size=4),
        st.booleans(),
    ),
    st.builds(
        SinusoidalPhases,
        period_s=st.floats(0.1, 5.0),
        amplitude=st.floats(0.0, 0.9),
        offset_s=st.floats(0.0, 3.0),
    ),
    st.builds(
        SquareWavePhases,
        period_s=st.floats(0.1, 5.0),
        low=_MULT,
        high=_MULT,
        duty=st.floats(0.05, 0.95),
        offset_s=st.floats(0.0, 3.0),
    ),
)
_COST = st.floats(1.0, 60.0)


@st.composite
def _profiles(draw):
    min_hr = draw(st.floats(1.0, 60.0))
    max_hr = min_hr * (1.0 + draw(st.floats(0.0, 0.5)))
    costs = draw(
        st.one_of(
            st.fixed_dictionaries({"A15": _COST, "A7": _COST}),
            st.fixed_dictionaries({ANY_CORE_TYPE: _COST}),
        )
    )
    return BenchmarkProfile(
        name="bench",
        input_label="x",
        nominal_hr=0.5 * (min_hr + max_hr),
        hr_range=HeartRateRange(min_hr, max_hr),
        cost_pu_s_per_beat_by_type=costs,
        phases=draw(_PHASES),
        work_limit_factor=draw(st.sampled_from([1.1, None])),
    )


@st.composite
def _specs(draw):
    now = draw(st.floats(0.0, 5.0))
    dt = draw(st.sampled_from([0.01, 0.005]))
    tasks = []
    for _ in range(draw(st.integers(1, 8))):
        started = draw(st.sampled_from([True, True, True, False]))
        if started:
            start_time = max(0.0, now - draw(st.floats(0.0, 3.0)))
        else:
            start_time = now + draw(st.floats(0.001, 3.0))
        freeze = draw(st.sampled_from(["none", "past", "now", "ahead"]))
        frozen_until = {
            "none": 0.0,
            "past": max(0.0, now - 0.002),
            "now": now,
            "ahead": now + 0.002,
        }[freeze]
        tasks.append({
            "profile": draw(_profiles()),
            "start_time": start_time,
            "duration": draw(st.one_of(st.none(), st.none(), st.floats(0.0, 4.0))),
            "frozen_until": frozen_until,
            "core": draw(st.one_of(st.integers(0, N_CORES - 1), st.none())),
            "beats": draw(st.floats(0.0, 1e4)),
            "hrm": draw(st.booleans()),
            "load": draw(st.one_of(st.none(), st.floats(0.0, 1.0))),
            "allocation": draw(st.one_of(st.none(), st.floats(0.0, 2500.0))),
            "weight": draw(st.one_of(st.none(), st.just(0.0), st.floats(0.01, 8.0))),
        })
    return {
        "now": now,
        "dt": dt,
        "levels": (draw(st.integers(0, 8)), draw(st.integers(0, 8))),
        "gated": draw(st.sampled_from([None, None, "big", "little"])),
        "tasks": tasks,
        "load_order": draw(st.permutations(range(len(tasks)))),
    }


def _task(profile, core, *, start_time=0.0, frozen_until=0.0, load=None,
          allocation=None, weight=None, duration=None):
    return {
        "profile": profile, "start_time": start_time, "duration": duration,
        "frozen_until": frozen_until, "core": core, "beats": 120.0,
        "hrm": True, "load": load, "allocation": allocation, "weight": weight,
    }


def _profile(phases, limit):
    return BenchmarkProfile(
        name="bench", input_label="x", nominal_hr=25.0,
        hr_range=HeartRateRange(20.0, 30.0),
        cost_pu_s_per_beat_by_type={"A15": 12.0, "A7": 21.0},
        phases=phases, work_limit_factor=limit,
    )


#: Every case the strategy can draw, in one state: on big.0 a runnable
#: and a frozen task both new to the load dict, an explicit allocation,
#: a zero and a missing weight; a placed task that has not started; an
#: active unplaced task; and the LITTLE cluster gated with a task mapped.
MIXED = {
    "now": 2.5,
    "dt": 0.01,
    "levels": (4, 3),
    "gated": "little",
    "tasks": [
        _task(_profile(ConstantPhase(1.3), 1.1), 0),
        _task(_profile(SinusoidalPhases(1.7, 0.4, 0.2), None), 0, frozen_until=2.502),
        _task(_profile(SquareWavePhases(0.9, 0.6, 1.4, 0.3), 1.1), 1, allocation=700.0),
        _task(_profile(PiecewisePhases([(1.0, 0.5), (2.0, 1.8)], True), None), 1,
              weight=0.0, load=0.4),
        _task(_profile(ConstantPhase(), 1.1), 1, start_time=4.0),
        _task(_profile(ConstantPhase(), None), None, duration=9.0),
        _task(_profile(ConstantPhase(0.8), 1.1), 2, weight=2.5),
    ],
    "load_order": [3, 0, 1, 2, 4, 5, 6],
}


class TestFusedDispatchMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(spec=_specs())
    @example(spec=MIXED)
    def test_one_dispatch_is_bit_exact(self, spec):
        fused = _build(spec)
        fused._dispatch()
        reference = _build(spec)
        _reference_dispatch(reference)
        assert _state(fused) == _state(reference)

    def test_mixed_state_reaches_every_case(self):
        sim = _build(MIXED)
        now = sim.now
        mapped = [t for t in sim.tasks if sim.placement.is_placed(t)]
        assert sim.active_tasks() is not sim.tasks
        assert any(t.frozen_until > now for t in mapped)
        assert any(not t.is_active(now) for t in mapped)
        assert any(t.is_active(now) and not sim.placement.is_placed(t) for t in sim.tasks)
        assert not sim.chip.cluster("little").powered
        assert sim.placement.has_tasks(sim.chip.cluster("little"))
