"""Moves patch the caches they touch: the result equals a rebuild.

An LBT move keeps the task population, so the columnar engine permutes
its epoch instead of reseeding it, and PPM patches what the move changes
instead of dropping it: the demand cache's smoothed row, the market
mirror's signature, the market's round and clearing structures, and the
LBT evaluator's cluster rosters and their profile rows.  The
object/columnar harness cannot see
PPM's caches, because both loops share them.  So each run here holds
the patched system to a reference that rebuilds: an engine that reseeds
every epoch from the object view, under a PPM that drops every cache a
move patches at each bid period and after each move.  Tick records (as
JSON, so every float's repr counts), the snapshot without its tick
history, and the number of executed moves must match exactly.
"""

import json

import numpy as np
import pytest

from repro.checkpoint import restore_simulation, snapshot_simulation, tick_records
from repro.core import MarketConfig, OverloadManager, PPMConfig, PPMGovernor
from repro.core.market import Market
from repro.core.vecestimate import _ClusterBase
from repro.experiments.overload import build_overload_arrivals
from repro.faults import FaultInjector, FaultKind, single_fault
from repro.governors import MaxFrequencyGovernor
from repro.hw import tc2_chip
from repro.sim import SimConfig
from repro.sim.columnar import ColumnarSimulation, _HRMRings
from repro.sim.engine import ObjectSimulation
from repro.tasks import ArrivalStream, random_tasks

TICKS = 600  # 6 s


class RebuildingPPM(PPMGovernor):
    """PPM that rebuilds every cache a move would patch."""

    def _drop_move_caches(self):
        self._demand_vec_cache = None
        self._market_sync_sig = None
        self.market._round_struct = None
        self.market._clearing_struct = None
        if self.lbt is not None and self.lbt._batch_eval is not None:
            self.lbt._batch_eval._bases.clear()

    def _bid_period(self, sim):
        self._drop_move_caches()
        super()._bid_period(sim)

    def _execute_move(self, sim, decision):
        super()._execute_move(sim, decision)
        self._drop_move_caches()


class ReseedingSimulation(ColumnarSimulation):
    """The columnar loop with every epoch seeded from the object view."""

    def _build_epoch(self):
        self.sync()
        self._epoch = None
        return super()._build_epoch()


#: (tasks, task seed, fault window, arrivals, restore tick).  The first
#: three are the differential shapes of test_columnar_equivalence.py.
SHAPES = {
    "128": (128, 5, None, False, None),
    "96-hotplug": (96, 2, (FaultKind.HOTPLUG, 2.0, 1.0, "big"), False, None),
    "96-migration-fail": (96, 4, (FaultKind.MIGRATION_FAIL, 1.0, 2.0, None), False, None),
    "96-arrivals": (96, 2, None, True, None),
    "128-restore": (128, 5, None, False, 250),
}


def _build(engine, governor_cls, shape):
    n, seed, fault, arrivals, _restore = SHAPES[shape]
    chip = tc2_chip()
    governor = governor_cls(PPMConfig(market=MarketConfig(wtdp=4.0)))
    sim = engine(
        chip,
        random_tasks(n, seed=seed),
        governor,
        config=SimConfig(seed=seed, metrics_warmup_s=1.0, audit=True),
    )
    if fault is not None:
        kind, start, duration, target = fault
        FaultInjector(sim, single_fault(kind, start, duration, target=target)).attach()
    if arrivals:
        stream = ArrivalStream(build_overload_arrivals(chip, 12.0, 1.0), seed=seed)
        OverloadManager(stream, None).attach(sim)
    return sim


def _run(engine, governor_cls, shape, restore_at=None):
    sim = _build(engine, governor_cls, shape)
    for tick in range(TICKS):
        if tick == restore_at:
            payload = snapshot_simulation(sim)
            sim = _build(engine, governor_cls, shape)
            restore_simulation(sim, payload)
        sim.step()
    sim.sync()
    return sim


def _state(sim):
    snapshot = snapshot_simulation(sim, tick_history=False)
    del snapshot["governor"]["type"]  # the reference is a subclass
    return (
        json.dumps(tick_records(sim.metrics), sort_keys=True),
        json.dumps(snapshot, sort_keys=True),
        sim.governor.moves_executed,
    )


@pytest.mark.parametrize("shape", list(SHAPES))
def test_patched_caches_match_rebuilt_ones(shape):
    n, _seed, _fault, arrivals, restore_at = SHAPES[shape]
    sim = _run(ColumnarSimulation, PPMGovernor, shape, restore_at)
    reference = _run(ReseedingSimulation, RebuildingPPM, shape)
    assert sim.governor.moves_executed > 0
    assert (len(sim.tasks) > n) == arrivals
    assert _state(sim) == _state(reference)


def test_a_full_move_journal_rebuilds(monkeypatch):
    """Past ``Market._MAX_MOVES`` a move bumps the stamp instead."""
    monkeypatch.setattr(Market, "_MAX_MOVES", 4)
    sim = _run(ColumnarSimulation, PPMGovernor, "128")
    reference = _run(ReseedingSimulation, RebuildingPPM, "128")
    # 128 registrations, then every fifth of the 30 moves bumps the stamp.
    assert sim.governor.market.structure_stamp == 128 + 30 // 5
    assert _state(sim) == _state(reference)


def test_same_population_rebuild_is_array_work(monkeypatch):
    """A move's rebuild neither flushes the object view nor builds rings."""
    counts = {"rebuilds": 0, "sync": 0, "rings": 0}
    same_population = []
    build = ColumnarSimulation._build_epoch
    sync = ColumnarSimulation.sync
    rings_init = _HRMRings.__init__

    def traced_build(self):
        old = self._epoch
        same = old is not None and set(old.tasks) == set(self.placement.all_tasks())
        same_population.append(same)
        counts["rebuilds"] += same
        try:
            return build(self)
        finally:
            same_population.pop()

    def traced_sync(self):
        if same_population and same_population[-1]:
            counts["sync"] += 1
        return sync(self)

    def traced_rings_init(self, *args):
        if same_population and same_population[-1]:
            counts["rings"] += 1
        return rings_init(self, *args)

    monkeypatch.setattr(ColumnarSimulation, "_build_epoch", traced_build)
    monkeypatch.setattr(ColumnarSimulation, "sync", traced_sync)
    monkeypatch.setattr(_HRMRings, "__init__", traced_rings_init)
    sim = _run(ColumnarSimulation, PPMGovernor, "128")
    assert sim.governor.moves_executed == 30
    assert counts == {"rebuilds": 30, "sync": 0, "rings": 0}


class RosterCheckingPPM(PPMGovernor):
    """PPM that holds each patched LBT roster to a fresh build."""

    checked = 0

    def _bid_period(self, sim):
        evaluator = self.lbt._batch_eval if self.lbt is not None else None
        market = self.market
        for cluster_id, base in (evaluator._bases if evaluator else {}).items():
            if base.stamp != market.structure_stamp:
                continue  # rebuilt on its next use
            if base.moves_seen != len(market.moves):
                base.replay(market, self.estimator)  # what the next proposal would do
                fresh = _ClusterBase(market, cluster_id, self.estimator)
                assert base.tids == fresh.tids
                for name in ("prio", "core_slot", "psum"):
                    assert getattr(base, name).tolist() == getattr(fresh, name).tolist()
                assert np.array_equal(base.profile, fresh.profile, equal_nan=True)
                self.checked += 1
        super()._bid_period(sim)


def test_patched_rosters_equal_rebuilt_ones():
    sim = _run(ColumnarSimulation, RosterCheckingPPM, "128")
    assert sim.governor.moves_executed == 30
    assert sim.governor.checked >= 30


def _move_on_arrival_tick(engine):
    """A tick that both places an arrival and freezes a migrated task.

    The arrival has no load-dict key yet, so the masked dispatch of that
    tick must write through in the object loop's order instead of
    deferring to the barrier.  Returns the load dict, as a barrier shows
    it, after each tick from that one on, and the tick records.
    """
    chip = tc2_chip()
    tasks = random_tasks(41, seed=3)
    arrival = tasks.pop()
    sim = engine(chip, tasks, MaxFrequencyGovernor(), config=SimConfig(seed=3))
    for _ in range(5):
        sim.step()
    sim.add_task(arrival)
    mover = tasks[0]
    source = sim.placement.core_of(mover)
    sim.migrate(mover, next(c for c in chip.cores if c is not source))
    loads = []
    for _ in range(5):
        sim.step()
        sim.sync()
        loads.append([(t.name, v.hex()) for t, v in sim.load_tracker._load.items()])
    assert arrival.name in [name for name, _ in loads[0]]
    return json.dumps(tick_records(sim.metrics)), loads


def test_move_on_an_arrival_tick_matches_the_object_loop():
    assert _move_on_arrival_tick(ColumnarSimulation) == _move_on_arrival_tick(
        ObjectSimulation
    )
