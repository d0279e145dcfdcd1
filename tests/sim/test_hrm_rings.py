"""The heart-rate rings against one ``HeartRateMonitor`` per row.

The columnar engine keeps an epoch's heart-rate windows in ``_HRMRings``:
one tick clock shared by every row, with each row holding the clock's
newest ``count`` samples, and ``ColumnarHRM`` views onto single rows.
Hypothesis drives a ring through what the engine does to it -- appends
to every row or to the active rows of a tick, resets, withheld beats,
row permutations over a window, and re-seeds that carry rows over in a
new order and bring back tasks that idled off the ring on plain
monitors -- while each task also records into a plain reference deque.
After every step each row's rate (as ``float.hex``), its scalar rate and
its samples must equal its deque's.
"""

import weakref
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.harness import make_governor
from repro.faults import FaultInjector, FaultKind, single_fault
from repro.hw import tc2_chip
from repro.sim import SimConfig
from repro.sim.columnar import ColumnarHRM, ColumnarSimulation, _HRMRings
from repro.sim.engine import ObjectSimulation
from repro.tasks import ScenarioConfig, build_workload, poisson_workload
from repro.tasks.heartbeats import HeartRateMonitor

WINDOWS = (0.05, 0.1, 0.35, 0.5)
#: The engine's 10 ms tick, a coarse one, and one whose sample times and
#: horizons are exact binary fractions, so a horizon lands on a sample.
DTS = (0.01, 0.05, 0.125)


class _Task:
    """A task's monitor (a ring view or a plain one) and its reference."""

    def __init__(self, window: float):
        self.hrm = HeartRateMonitor(window_s=window)
        self.ref = HeartRateMonitor(window_s=window)
        self.beats = 0.0


class _Engine:
    """The ring operations of ``ColumnarSimulation``, over few rows."""

    def __init__(self, tasks, dt: float):
        self.dt = dt
        self.now = 0.0
        self.rows = []  # the tasks on the ring, by row
        self.outside = []  # active tasks off the ring: they idle-record
        self.ring = None
        self.reseed(tasks)

    def reseed(self, tasks) -> None:
        """``_seed_epoch``: ``tasks`` take the rows, in this order."""
        on_ring = set(map(id, tasks))
        for task in self.rows:
            if id(task) not in on_ring:
                task.hrm = task.hrm.plain()
                self.outside.append(task)
        self.outside = [t for t in self.outside if id(t) not in on_ring]
        windows, samples, rows, src = [], [], [], []
        for i, task in enumerate(tasks):
            if type(task.hrm) is ColumnarHRM:
                rows.append(i)
                src.append(task.hrm._row)
                windows.append(1.0)
                samples.append(())
            else:
                windows.append(task.hrm.window_s)
                samples.append(task.hrm._samples)
        self.ring = _HRMRings(windows, samples, self.dt, self.ring, rows, src)
        for i, task in enumerate(tasks):
            task.hrm = ColumnarHRM(self.ring, i)
        self.rows = list(tasks)

    def tick(self, increments, active=None) -> None:
        t_new = self.now + self.dt
        for task, inc in zip(self.rows + self.outside, increments):
            task.beats += inc
        if self.rows:  # an empty epoch dispatches nothing
            beats = np.array([task.beats for task in self.rows])
            mask = None if active is None else np.array(active, dtype=bool)
            self.ring.append(t_new, beats, mask)
        for i, task in enumerate(self.rows):
            if active is None or active[i]:
                task.ref.record(t_new, task.beats)
        for task in self.outside:
            task.hrm.record(t_new, task.beats)  # Task.idle_tick
            task.ref.record(t_new, task.beats)
        self.now += self.dt

    def permute(self, perm) -> None:
        """``_permute_epoch``: row ``i`` takes old row ``perm[i]``."""
        perm = np.asarray(perm, dtype=np.intp)
        moved = np.flatnonzero(perm != np.arange(perm.size))
        if moved.size:
            self.ring.permute(perm, int(moved[0]), int(moved[-1]) + 1)
        self.rows = [self.rows[p] for p in perm.tolist()]
        for i, task in enumerate(self.rows):
            task.hrm._row = i

    def check(self) -> None:
        ring = self.ring
        rates = ring.rate_all()
        assert rates.shape == (len(self.rows),)
        for i, task in enumerate(self.rows):
            want = task.ref.heart_rate()
            assert float(rates[i]).hex() == want.hex(), (i, list(task.ref._samples))
            assert ring.rate_one(i).hex() == want.hex()
            assert task.hrm.heart_rate().hex() == want.hex()
            assert ring.samples_of(i) == task.ref._samples
            assert task.hrm._samples == task.ref._samples
            assert task.hrm.window_s == task.ref.window_s
        for task in self.outside:
            assert type(task.hrm) is HeartRateMonitor
            assert task.hrm._samples == task.ref._samples


def _increments(rng, k):
    """Beat increments: a task may make no progress in a tick (frozen)."""
    return rng.choice([0.0, 0.5, 1.25, 3.0, 7.75], size=k).tolist()


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_rings_match_one_deque_per_row(data):
    n = data.draw(st.integers(1, 12), label="rows")
    dt = data.draw(st.sampled_from(DTS), label="dt")
    windows = data.draw(
        st.lists(st.sampled_from(WINDOWS), min_size=n, max_size=n), label="windows"
    )
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
    engine = _Engine([_Task(w) for w in windows], dt)
    engine.check()
    for _ in range(data.draw(st.integers(1, 40), label="steps")):
        op = data.draw(
            st.sampled_from(
                ["run", "run", "masked", "reset", "withhold", "permute", "reseed"]
            )
        )
        rows = engine.rows
        if op == "run":
            for _tick in range(data.draw(st.integers(1, 12))):
                engine.tick(_increments(rng, len(rows) + len(engine.outside)))
                engine.check()
            continue
        if op == "masked":
            # Only rows holding no samples (placed before their start) skip.
            active = [
                bool(task.ref._samples) or data.draw(st.booleans()) for task in rows
            ]
            engine.tick(_increments(rng, len(rows) + len(engine.outside)), active)
        elif op == "reset" and rows:
            task = rows[data.draw(st.integers(0, len(rows) - 1))]
            task.hrm.reset()
            task.ref.reset()
        elif op == "withhold":
            held = [task for task in rows if task.ref._samples]
            if held:
                task = data.draw(st.sampled_from(held))
                count = task.beats - data.draw(st.sampled_from([0.0, 0.5, 2.0]))
                task.hrm.withhold_last(count)
                task.ref.withhold_last(count)
        elif op == "permute" and len(rows) >= 2:
            lo = data.draw(st.integers(0, len(rows) - 2))
            hi = data.draw(st.integers(lo + 2, len(rows)))
            window = data.draw(st.permutations(range(lo, hi)))
            engine.permute(list(range(lo)) + list(window) + list(range(hi, len(rows))))
        elif op == "reseed":
            # Some rows stay (in a new order), the rest leave to idle off
            # the ring; some idle tasks come back and new tasks arrive.
            stay = [task for task in rows if data.draw(st.booleans())]
            back = [task for task in engine.outside if data.draw(st.booleans())]
            new = [
                _Task(w)
                for w in data.draw(st.lists(st.sampled_from(WINDOWS), max_size=3))
            ]
            tasks = data.draw(st.permutations(stay + back + new))
            engine.reseed(tasks)
        engine.check()


def test_masked_append_must_not_skip_a_row_holding_samples():
    ring = _HRMRings([0.5, 0.5], [[(0.01, 1.0)], ()], 0.01)
    with pytest.raises(ValueError):
        ring.append(0.02, np.array([2.0, 1.0]), np.array([False, True]))
    # A row without samples may skip the tick.
    ring.append(0.02, np.array([2.0, 1.0]), np.array([True, False]))
    assert ring.samples_of(0) == deque([(0.01, 1.0), (0.02, 2.0)])
    assert ring.samples_of(1) == deque()


def test_seed_rows_must_share_one_clock():
    long_row = [(0.01, 1.0), (0.02, 2.0), (0.03, 3.0)]
    ok = _HRMRings([0.5, 0.5], [long_row, long_row[1:]], 0.01)
    assert ok.samples_of(1) == deque(long_row[1:])
    with pytest.raises(ValueError):  # not the newest end of the clock
        _HRMRings([0.5, 0.5], [long_row, long_row[:2]], 0.01)
    with pytest.raises(ValueError):  # another tick grid
        _HRMRings([0.5, 0.5], [long_row, [(0.025, 1.0)]], 0.01)
    # Rows carried over from a ring are checked against the plain rows too.
    with pytest.raises(ValueError):
        _HRMRings([1.0, 0.5], [(), [(0.015, 1.0), (0.025, 2.0)]], 0.01, ok, [0], [0])


def test_carried_rows_take_the_newest_end_of_a_longer_clock():
    """A task back from idling holds more ticks than the carried rows."""
    dt = 0.01
    engine = _Engine([_Task(0.05), _Task(0.1), _Task(0.5)], dt)
    rng = np.random.default_rng(5)
    for _ in range(8):
        engine.tick(_increments(rng, 3))
    long_window = engine.rows[2]
    engine.reseed(engine.rows[:2])  # it leaves and idles off the ring
    for _ in range(30):
        engine.tick(_increments(rng, 3))
    engine.check()
    engine.reseed([engine.rows[1], long_window, engine.rows[0]])
    assert engine.ring.size == len(long_window.ref._samples) > max(
        len(task.ref._samples) for task in engine.rows if task is not long_window
    )
    engine.check()
    for _ in range(5):
        engine.tick(_increments(rng, 3))
        engine.check()


def _churn(engine, after_tick=None):
    """30 s of Poisson arrivals that live 5-15 s: 91 tasks come and go."""
    scenario = ScenarioConfig(
        duration_s=30.0, arrival_rate_hz=3.0, lifetime_range_s=(5.0, 15.0)
    )
    sim = engine(
        tc2_chip(),
        poisson_workload(scenario, seed=3),
        make_governor("PPM", power_cap_w=8.0),
        config=SimConfig(seed=1),
    )
    for _tick in range(3000):
        sim.step()
        if after_tick is not None:
            after_tick(sim)
    sim.sync()
    return sim


def test_monitor_views_live_only_inside_their_epoch(monkeypatch):
    """Tasks off the epoch hold plain monitors, so no old ring lives on."""
    built = []
    init = _HRMRings.__init__

    def traced_init(self, *args):
        built.append(weakref.ref(self))
        init(self, *args)

    def one_ring_alive(sim):
        assert [ring() for ring in built if ring() is not None] == [sim._epoch.rings]

    monkeypatch.setattr(_HRMRings, "__init__", traced_init)
    sim = _churn(ColumnarSimulation, one_ring_alive)
    epoch = sim._epoch
    assert len(built) > 1
    assert len(sim.tasks) == 91
    assert any(not task.is_active(sim.now) for task in sim.tasks)
    for task in sim.tasks:
        if task in epoch.rowmap:
            assert task.hrm._rings is epoch.rings
            assert task.hrm._row == epoch.rowmap[task]
        else:
            assert type(task.hrm) is HeartRateMonitor
    reference = _churn(ObjectSimulation)
    for col, obj in zip(sim.tasks, reference.tasks):
        assert col.hrm.window_s == obj.hrm.window_s
        assert col.hrm._samples == obj.hrm._samples


def test_a_task_placed_again_seeds_from_its_plain_monitor(monkeypatch):
    """Both clusters unplugged for 1 s: every task idles, then comes back.

    ``TestOffMapEquivalence``'s ``offline`` shape, whose equivalence with
    the object loop that file checks; here, that its re-placement seeds
    rings from plain monitors holding samples.
    """
    plain_rows = []
    init = _HRMRings.__init__

    def traced_init(self, windows, samples, *args):
        plain_rows.extend(len(pairs) for pairs in samples if len(pairs))
        init(self, windows, samples, *args)

    monkeypatch.setattr(_HRMRings, "__init__", traced_init)
    chip = tc2_chip()
    sim = ColumnarSimulation(
        chip,
        build_workload("m1"),
        make_governor("PPM", power_cap_w=8.0),
        config=SimConfig(seed=5, metrics_warmup_s=1.0, audit=True),
    )
    schedule = single_fault(FaultKind.HOTPLUG, 1.0, 1.0, target="big")
    schedule = schedule.extended(
        single_fault(FaultKind.HOTPLUG, 1.0, 1.0, target="little").events
    )
    FaultInjector(sim, schedule).attach()
    sim.run(3.0)
    assert len(plain_rows) == 6 and min(plain_rows) > 1
