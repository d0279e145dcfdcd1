"""A market round's grants reach the columnar epoch by row.

PPM hands each round's supply column to ``Simulation.set_allocations``
with the engine's tasks in market row order, and the columnar engine
scatters it into its epoch's grant inputs (``alloc_has``, ``alloc_val``,
``weight_val``) through a row index the epoch holds; a move's
permutation carries the inputs over.  Only a seed and the engine's
other edits (``set_allocation``, ``clear_allocation(s)``, ``set_weight``)
rebuild them from the engine's dicts.

After every tick the epoch's inputs must equal, as ``float.hex``, what
``_Epoch.refresh_grant_inputs`` would build from ``sim._allocations`` and
``sim._weights``; the expected columns are computed here, so the epoch
itself is never rebuilt by the check.  After a seed, nothing reachable
from the row index may be an outgoing epoch or its heart-rate ring.
"""

import gc
import random
import types
import weakref
from array import array

import numpy as np
import pytest

from repro.checkpoint import tick_records
from repro.experiments.harness import make_governor
from repro.faults import FaultInjector, FaultKind, single_fault
from repro.hw import tc2_chip
from repro.sim import SimConfig
from repro.sim.columnar import ColumnarSimulation, _Epoch, _HRMRings
from repro.sim.engine import ObjectSimulation
from repro.tasks import ScenarioConfig, poisson_workload, random_tasks


def _clamp(v):
    return v if v > 0.0 else 0.0


def _hex(values):
    return [float.hex(float(v)) for v in values]


def _assert_inputs_current(sim):
    """The epoch's grant inputs against the dicts, row by row."""
    ep = getattr(sim, "_epoch", None)
    if ep is None or not ep.n:
        return
    allocations, weights = sim._allocations, sim._weights
    assert ep.alloc_has.tolist() == [t in allocations for t in ep.tasks]
    assert _hex(ep.alloc_val.tolist()) == _hex(
        _clamp(allocations.get(t, 0.0)) for t in ep.tasks
    )
    assert _hex(ep.weight_val.tolist()) == _hex(
        _clamp(weights.get(t, 1.0)) for t in ep.tasks
    )


class _Counts:
    """Counts of market rounds and of grant-input rebuilds."""

    def __init__(self, monkeypatch):
        self.rebuilds = 0
        self.rounds = 0
        refresh = _Epoch.refresh_grant_inputs
        set_allocations = ColumnarSimulation.set_allocations

        def counting_refresh(ep, allocations, weights):
            self.rebuilds += 1
            refresh(ep, allocations, weights)

        def counting_set(sim, tasks, pus):
            self.rounds += 1
            set_allocations(sim, tasks, pus)

        monkeypatch.setattr(_Epoch, "refresh_grant_inputs", counting_refresh)
        monkeypatch.setattr(ColumnarSimulation, "set_allocations", counting_set)


def _run(sim, duration_s, each_tick):
    end = sim.now + duration_s
    while sim.now < end - 0.5 * sim.config.dt:
        each_tick(sim)
        sim.step()
        _assert_inputs_current(sim)
    sim.sync()
    return sim


# test_columnar_equivalence.py's moving shapes: (tasks, task seed, fault
# window, moves executed, failed migrations).
MOVING_SHAPES = [
    (128, 5, None, 30, 0),
    (96, 2, (FaultKind.HOTPLUG, 2.0, 1.0, "big"), 22, 12),
    (96, 4, (FaultKind.MIGRATION_FAIL, 1.0, 2.0, None), 11, 37),
]


@pytest.mark.parametrize(
    "n,task_seed,window,moves,failed",
    MOVING_SHAPES,
    ids=["128", "96-hotplug", "96-migration-fail"],
)
def test_moving_shapes_scatter_every_round(monkeypatch, n, task_seed, window, moves, failed):
    """PPM at 4 W for 6 s: every move permutes the epoch, inputs included."""
    counts = _Counts(monkeypatch)
    sim = ColumnarSimulation(
        tc2_chip(),
        random_tasks(n, seed=task_seed),
        make_governor("PPM", power_cap_w=4.0),
        config=SimConfig(seed=task_seed, metrics_warmup_s=1.0, audit=True),
    )
    if window is not None:
        kind, start_s, length_s, target = window
        FaultInjector(sim, single_fault(kind, start_s, length_s, target=target)).attach()
    _run(sim, 6.0, lambda sim: None)
    assert sim.governor.moves_executed == moves
    assert sim.failed_migrations == failed
    # Every round scatters: the dicts are walked once, on the first tick.
    assert (counts.rounds, counts.rebuilds) == (150, 1)


def _edits(sim, rng):
    """Between rounds: the engine's other allocation and weight edits."""
    tasks = sim.tasks
    r = rng.random()
    if r < 0.08:
        sim.set_allocation(rng.choice(tasks), rng.choice([-5.0, -0.0, 0.0, 37.5, 420.0]))
    elif r < 0.14:
        sim.clear_allocation(rng.choice(tasks))
    elif r < 0.16:
        sim.clear_allocations()
    elif r < 0.22:
        sim.set_weight(rng.choice(tasks), rng.choice([-1.0, 0.0, 0.5, 2.5]))


def test_edits_between_rounds_rebuild_the_inputs(monkeypatch):
    """64 tasks under PPM with ``set_allocation``, ``clear_allocation(s)``
    and ``set_weight`` mixed in.

    The same edits on the object loop give the same telemetry and the
    same allocation and weight dicts.
    """
    counts = _Counts(monkeypatch)

    def build(engine):
        rng = random.Random(11)
        sim = engine(
            tc2_chip(),
            random_tasks(64, seed=3),
            make_governor("PPM", power_cap_w=6.0),
            config=SimConfig(seed=3, metrics_warmup_s=1.0, audit=True),
        )
        return sim, (lambda sim: _edits(sim, rng) if sim.tick_index > 0 else None)

    col, edit = build(ColumnarSimulation)
    _run(col, 4.0, edit)
    # The edits rebuild the inputs, and the rounds after them scatter.
    assert (counts.rounds, counts.rebuilds) == (100, 102)
    obj, edit = build(ObjectSimulation)
    end = obj.now + 4.0
    while obj.now < end - 0.5 * obj.config.dt:
        edit(obj)
        obj.step()
    assert tick_records(obj.metrics) == tick_records(col.metrics)
    for attr in ("_allocations", "_weights"):
        assert [(t.name, v) for t, v in getattr(obj, attr).items()] == [
            (t.name, v) for t, v in getattr(col, attr).items()
        ]


def _read_only(values):
    column = np.array(values)
    column.flags.writeable = False
    return column


@pytest.mark.parametrize("column", [_read_only, lambda v: array("d", v)], ids=["ndarray", "array"])
@pytest.mark.parametrize("engine", [ObjectSimulation, ColumnarSimulation])
def test_set_allocations_clamps_as_set_allocation(engine, column):
    """``v if v > 0.0 else 0.0`` per row: -0.0, NaN and negatives give +0.0.

    Both kinds of supply column: the vectorized clearing's array and the
    scalar steps' ``array('d')``.
    """
    sim = engine(
        tc2_chip(),
        random_tasks(6, seed=1),
        make_governor("HL", power_cap_w=6.0),
        config=SimConfig(seed=1),
    )
    sim.step()
    tasks = sim.tasks[1:]
    pus = column([-3.0, -0.0, float("nan"), 0.0, 12.5])
    sim.set_allocations(tasks, pus)
    reference = engine(tc2_chip(), random_tasks(6, seed=1), make_governor("HL"))
    for task, v in zip(tasks, pus.tolist()):
        reference.set_allocation(task, v)
    assert [(t.name, float.hex(v)) for t, v in sim._allocations.items()] == [
        (t.name, float.hex(v)) for t, v in reference._allocations.items()
    ]
    assert _hex(sim._allocations.values()) == _hex([0.0, 0.0, 0.0, 0.0, 12.5])
    sim.step()
    _assert_inputs_current(sim)


def _reachable(root, kinds):
    """The objects of ``kinds`` that ``root`` reaches, not looking past them."""
    found, seen, stack = [], set(), [root]
    skip = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        if isinstance(obj, kinds):
            found.append(obj)
            continue
        stack.extend(gc.get_referents(obj))
    return found


def test_no_outgoing_epoch_reachable_from_the_row_index(monkeypatch):
    """20 s of Poisson arrivals: tasks come and go, so epochs are seeded."""
    built = []
    init = _HRMRings.__init__

    def traced_init(self, *args):
        built.append(weakref.ref(self))
        init(self, *args)

    monkeypatch.setattr(_HRMRings, "__init__", traced_init)
    scenario = ScenarioConfig(
        duration_s=20.0, arrival_rate_hz=3.0, lifetime_range_s=(5.0, 15.0)
    )
    sim = ColumnarSimulation(
        tc2_chip(),
        poisson_workload(scenario, seed=3),
        make_governor("PPM", power_cap_w=8.0),
        config=SimConfig(seed=1),
    )
    seen = {"seeds": 0, "indexed": 0}
    state = {"rings": None}

    def check(sim):
        ep = sim._epoch
        if ep is None:
            return
        if ep.rings is not state["rings"]:
            seen["seeds"] += int(state["rings"] is not None)
            state["rings"] = ep.rings
        assert [ring() for ring in built if ring() is not None] == [ep.rings]
        if ep.grant_rows is not None:
            seen["indexed"] += 1
            assert _reachable(ep.grant_rows, (_Epoch, _HRMRings)) in ([], [ep.rings])

    _run(sim, 20.0, check)
    assert seen["seeds"] > 50 and seen["indexed"] > 1000
