"""Sync-barrier contract: lazy materialisation is unobservable.

The columnar engine keeps the NumPy columns authoritative and only
materialises the ``Task`` object view at observation boundaries
(:meth:`ColumnarSimulation.sync`).  Three promises are held here:

* **interleaving property** -- any interleaving of governor-, fault-,
  telemetry- and checkpoint-style observations, at any ticks, sees
  *identical* values from the columnar engine, which materialises lazily
  at the barrier, and from the object loop, which writes every attribute
  on every tick (hypothesis-generated observation plans, exact equality);
* **poison** -- with :attr:`ColumnarSimulation.poison` set, a
  deliberately unsynchronised read of a hot ``Task`` attribute raises
  :class:`PoisonedStateError`, and the same read succeeds (with the
  object loop's value) after a barrier;
* **barrier laziness** -- the columnar engine actually skips flushes: a
  run with no extra observations performs fewer barrier flushes than one
  observed every tick.
"""

from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import tick_records
from repro.checkpoint.snapshot import snapshot_simulation
from repro.experiments.harness import make_governor
from repro.hw import tc2_chip
from repro.sim import SimConfig
from repro.sim.columnar import ColumnarSimulation, PoisonedStateError
from repro.sim.engine import ObjectSimulation
from repro.tasks import random_tasks

_HOT_ATTRS = (
    "total_beats",
    "total_work_pu_s",
    "last_supply_pus",
    "last_consumed_pus",
)


def _make(engine, *, n_tasks=6, seed=11):
    return engine(
        tc2_chip(),
        random_tasks(n_tasks, seed=seed),
        make_governor("PPM", power_cap_w=8.0),
        config=SimConfig(seed=seed, metrics_warmup_s=0.0),
    )


# -- observation actions: each uses a real observation API ------------------


def _observe_governor(sim):
    """What a governor hook sees: hot task attrs behind the barrier."""
    sim.sync()
    return [
        (t.name,) + tuple(getattr(t, a) for a in _HOT_ATTRS)
        for t in sim.tasks
    ]


def _observe_fault(sim):
    """What the fault injector sees: heart rates and load tracking."""
    sim.sync()
    rates = [(t.name, t.hrm.heart_rate()) for t in sim.tasks]
    loads = [(t.name, v) for t, v in sim.load_tracker._load.items()]
    return rates, loads


def _observe_telemetry(sim):
    """Materialise the telemetry column buffers mid-run."""
    records = tick_records(sim.metrics)
    return len(records), (records[-1] if records else None)


def _observe_checkpoint(sim):
    """Checkpoint barrier: the full JSON-safe snapshot."""
    return snapshot_simulation(sim)


_ACTIONS = {
    "governor": _observe_governor,
    "fault": _observe_fault,
    "telemetry": _observe_telemetry,
    "checkpoint": _observe_checkpoint,
}

_N_TICKS = 24


def _run_plan(engine, plan):
    """Step a sim tick-by-tick, observing per the plan; returns evidence."""
    by_tick = defaultdict(list)
    for tick, action in plan:
        by_tick[tick].append(action)
    sim = _make(engine)
    observed = []
    for tick in range(_N_TICKS):
        sim.step()
        for action in by_tick.get(tick, ()):
            observed.append((tick, action, _ACTIONS[action](sim)))
    sim.sync()
    observed.append(("end", "governor", _observe_governor(sim)))
    observed.append(("end", "telemetry", _observe_telemetry(sim)))
    return sim, observed


@settings(max_examples=12, deadline=None)
@given(
    plan=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=_N_TICKS - 1),
            st.sampled_from(sorted(_ACTIONS)),
        ),
        max_size=8,
    )
)
def test_interleaved_observations_eager_vs_lazy(plan):
    plan = sorted(plan)
    # The object loop writes every attribute every tick: the eager side.
    sim_eager, seen_eager = _run_plan(ObjectSimulation, plan)
    sim_lazy, seen_lazy = _run_plan(ColumnarSimulation, plan)
    # Every observation -- wherever the plan put it -- is bit-identical.
    assert seen_eager == seen_lazy
    # And the runs themselves did not diverge: full telemetry matches.
    assert tick_records(sim_eager.metrics) == tick_records(sim_lazy.metrics)


def test_lazy_mode_defers_flushes():
    """The barrier must actually skip work, not just match the object loop."""
    plan_quiet = []
    plan_noisy = [(t, "governor") for t in range(_N_TICKS)]
    sim_quiet, _ = _run_plan(ColumnarSimulation, plan_quiet)
    sim_noisy, _ = _run_plan(ColumnarSimulation, plan_noisy)
    assert sim_quiet.sync_count < sim_noisy.sync_count


def test_poison_mode_catches_unsynchronised_read():
    sim = _make(ColumnarSimulation)
    sim.poison = True
    sim.step()
    sim.step()
    task = sim.tasks[0]
    with pytest.raises(PoisonedStateError):
        float(task.total_beats)
    with pytest.raises(PoisonedStateError):
        float(task.last_supply_pus)
    # The barrier clears the poison and lands the true values: the same
    # reads now succeed and match an object-loop twin of the run.
    sim.sync()
    twin = _make(ObjectSimulation)
    twin.step()
    twin.step()
    for mine, theirs in zip(sim.tasks, twin.tasks):
        for attr in _HOT_ATTRS:
            assert getattr(mine, attr) == getattr(theirs, attr)
