"""Differential equivalence: columnar engine vs reference object engine.

The columnar tick engine (:mod:`repro.sim.columnar`) promises *bit-exact*
telemetry: every per-tick record, every task attribute, every load-tracker
entry (including dict insertion order) must match the per-object reference
loop.  Both sides are built by class, so every comparison runs both loops
at any task count.  These tests hold the engine to that promise two ways:

* six pinned golden scenarios -- the same configurations the determinism
  golden digests pin -- run under both engines and compared tick-by-tick,
  failing with the *first divergent tick* and the fields that differ;
* one pinned scenario per fault the engine routes through its seams
  (heartbeat loss, dropped and delayed DVFS writes, failed migrations);
* flash-crowd arrivals with and without admission control, the one
  pinned shape where tasks arrive mid-run and retire;
* tasks off the dispatch map: active tasks left unplaced while every
  cluster is hot-unplugged, and a task placed before it starts;
* populations of 96 and 128 tasks under PPM at 4 W, where the vector
  market and LBT run and every move permutes the columnar epoch, plain
  and with a hotplug or a migration-fail window; these and the task
  placed before its start are also pinned to reach the columnar loop's
  masked tick, with frozen and with skipped rows;
* hypothesis-generated configurations sweeping task mixes, governors,
  sensor noise, thermal tracking and estimated-power operation, so any
  columnar fast path that is only exercised under an odd combination
  still gets differential coverage.
"""

from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import tick_records
from repro.core.admission import AdmissionConfig, AdmissionController, OverloadManager
from repro.core.powerest import EstimationConfig
from repro.experiments.campaigns import CAMPAIGN_FAULTS, build_campaign_schedule
from repro.experiments.harness import make_governor
from repro.experiments.overload import build_overload_arrivals
from repro.faults import FaultInjector, FaultKind, single_fault
from repro.hw import tc2_chip
from repro.hw.thermal import ThermalConfig
from repro.sim import SimConfig
from repro.sim.columnar import ColumnarSimulation
from repro.sim.engine import ObjectSimulation
from repro.tasks import ArrivalStream, build_workload, random_tasks


def _build(engine, *, workload, governor, seed, noise_w, fault, duration_s,
           thermal=None, estimation=None, power_cap_w=10.0, window=None):
    chip = tc2_chip()
    tasks = (
        random_tasks(workload[1], seed=workload[2])
        if workload[0] == "random"
        else build_workload(workload[1])
    )
    sim = engine(
        chip,
        tasks,
        make_governor(governor, power_cap_w=power_cap_w),
        config=SimConfig(
            seed=seed,
            metrics_warmup_s=1.0,
            audit=True,
            sensor_noise_std_w=noise_w,
            thermal=thermal,
            estimation=estimation,
        ),
    )
    if fault is not None:
        schedule = build_campaign_schedule(
            CAMPAIGN_FAULTS[fault], duration_s + 6.0, 1.0, 0.4, chip
        )
        FaultInjector(sim, schedule).attach()
    if window is not None:
        kind, start_s, length_s, target = window
        FaultInjector(sim, single_fault(kind, start_s, length_s, target=target)).attach()
    sim.run(duration_s)
    return sim


def _first_divergence(a, b):
    """Index + field names of the first differing tick record, or None."""
    ra, rb = tick_records(a.metrics), tick_records(b.metrics)
    if len(ra) != len(rb):
        return min(len(ra), len(rb)), ["<record count: %d vs %d>" % (len(ra), len(rb))]
    for k, (x, y) in enumerate(zip(ra, rb)):
        if x != y:
            fields = [key for key in x if x[key] != y.get(key)]
            return k, fields
    return None


def _assert_equivalent(obj, col, label):
    assert type(obj) is ObjectSimulation and type(col) is ColumnarSimulation
    div = _first_divergence(obj, col)
    if div is not None:
        tick, fields = div
        ra, rb = tick_records(obj.metrics), tick_records(col.metrics)
        detail = ""
        if tick < len(ra) and tick < len(rb):
            for f in fields:
                detail += "\n  %s: object=%r columnar=%r" % (
                    f, ra[tick].get(f), rb[tick].get(f))
        pytest.fail(
            "%s: telemetry diverged at tick %d, fields %s%s"
            % (label, tick, fields, detail)
        )
    # Load-tracker dict must match including insertion order -- the object
    # engine's dispatch order is part of the contract.
    la = [(t.name, v) for t, v in obj.load_tracker._load.items()]
    lb = [(t.name, v) for t, v in col.load_tracker._load.items()]
    assert la == lb, "%s: load-tracker dict diverged" % label
    # The allocation and weight dicts are checkpoint bytes: keys, values
    # and insertion order.
    for attr in ("_allocations", "_weights"):
        da = [(t.name, v) for t, v in getattr(obj, attr).items()]
        db = [(t.name, v) for t, v in getattr(col, attr).items()]
        assert da == db, "%s: %s diverged" % (label, attr)
    for ta, tb in zip(obj.tasks, col.tasks):
        for attr in ("total_beats", "total_work_pu_s", "last_supply_pus",
                     "last_consumed_pus", "frozen_until", "migrations"):
            va, vb = getattr(ta, attr), getattr(tb, attr)
            assert va == vb, "%s: %s.%s %r vs %r" % (label, ta.name, attr, va, vb)
        assert list(ta.hrm._samples) == list(tb.hrm._samples), (
            "%s: %s hrm samples diverged" % (label, ta.name))


# The same six configurations the golden telemetry digests pin
# (tests/sim/test_determinism.py) -- governor, workload, seed,
# duration_s, noise_w, fault.
GOLDEN_SCENARIOS = [
    ("PPM", ("named", "m1"), 17, 4.0, 0.05, None),
    ("PPM", ("named", "m2"), 17, 6.0, 0.0, None),
    ("HPM", ("named", "m1"), 17, 4.0, 0.0, None),
    ("HL", ("named", "l1"), 17, 4.0, 0.0, None),
    ("PPM", ("named", "m1"), 17, 6.0, 0.0, "sensor-dropout"),
    ("PPM", ("named", "m1"), 5, 6.0, 0.0, "hotplug"),
]


class TestGoldenScenarioEquivalence:
    @pytest.mark.parametrize(
        "governor,workload,seed,duration_s,noise_w,fault",
        GOLDEN_SCENARIOS,
        ids=lambda v: str(v),
    )
    def test_engines_agree(self, governor, workload, seed, duration_s,
                           noise_w, fault):
        kw = dict(workload=workload, governor=governor, seed=seed,
                  noise_w=noise_w, fault=fault, duration_s=duration_s)
        obj = _build(ObjectSimulation, **kw)
        col = _build(ColumnarSimulation, **kw)
        label = "%s/%s/seed=%d/fault=%s" % (governor, workload[1], seed, fault)
        _assert_equivalent(obj, col, label)


# Faults the engine consults its injector for -- governor, workload, fault
# kind, and the injector counter that proves the window fired.
SEAM_SCENARIOS = [
    ("PPM", ("named", "m1"), "heartbeat-loss", "heartbeats_lost"),
    ("HPM", ("named", "m2"), "dvfs-drop", "dvfs_dropped"),
    ("HPM", ("named", "m2"), "dvfs-delay", "dvfs_delayed"),
    ("PPM", ("named", "m1"), "migration-fail", "migrations_failed"),
]


class TestFaultSeamEquivalence:
    @pytest.mark.parametrize(
        "governor,workload,fault,counter",
        SEAM_SCENARIOS,
        ids=[row[2] for row in SEAM_SCENARIOS],
    )
    def test_engines_agree_under_fault(self, governor, workload, fault, counter):
        kw = dict(workload=workload, governor=governor, seed=5, noise_w=0.0,
                  fault=fault, duration_s=6.0)
        obj = _build(ObjectSimulation, **kw)
        col = _build(ColumnarSimulation, **kw)
        _assert_equivalent(obj, col, "%s/%s/fault=%s" % (governor, workload[1], fault))
        stats = obj.fault_injector.stats()
        assert stats[counter] > 0
        assert col.fault_injector.stats() == stats


def _build_arrivals(engine, governor, admission):
    chip = tc2_chip()
    sim = engine(
        chip,
        build_workload("l1"),
        make_governor(governor, power_cap_w=10.0),
        config=SimConfig(seed=3, metrics_warmup_s=3.0, audit=True),
    )
    stream = ArrivalStream(build_overload_arrivals(chip, 12.0, 3.0), seed=3)
    controller = AdmissionController(AdmissionConfig()) if admission else None
    OverloadManager(stream, controller).attach(sim)
    sim.run(12.0)
    return sim


class TestArrivalEquivalence:
    """l1 under a flash crowd at 10 W: arrivals are placed, run and retire.

    Each run retires 38-46 tasks.  Retirement runs before dispatch in the
    tick a task ends, so no task is mapped but inactive at dispatch here;
    :class:`TestOffMapEquivalence` covers that case.
    """

    @pytest.mark.parametrize("admission", [False, True], ids=["baseline", "admission"])
    @pytest.mark.parametrize("governor", ["PPM", "HPM", "HL"])
    def test_engines_agree_with_arrivals(self, governor, admission):
        obj = _build_arrivals(ObjectSimulation, governor, admission)
        col = _build_arrivals(ColumnarSimulation, governor, admission)
        assert [t.name for t in obj.tasks] == [t.name for t in col.tasks]
        assert any(not t.is_active(obj.now) for t in obj.tasks)  # some retired
        _assert_equivalent(obj, col, "%s/l1/arrivals/admission=%s" % (governor, admission))


def _build_off_map(engine, governor, case):
    chip = tc2_chip()
    tasks = build_workload("m1")
    if case == "preplaced":
        tasks[1].start_time = 1.0
    sim = engine(
        chip,
        tasks,
        make_governor(governor, power_cap_w=8.0),
        config=SimConfig(seed=5, metrics_warmup_s=1.0, audit=True),
    )
    if case == "offline":
        schedule = single_fault(FaultKind.HOTPLUG, 1.0, 1.0, target="big")
        schedule = schedule.extended(
            single_fault(FaultKind.HOTPLUG, 1.0, 1.0, target="little").events
        )
        FaultInjector(sim, schedule).attach()
    else:
        sim.place(tasks[1], chip.cluster("little").cores[0])
    sim.run(3.0)
    return sim


class TestOffMapEquivalence:
    """m1 with tasks off the dispatch map for 100 ticks.

    ``offline``: both clusters are hot-unplugged from 1 s to 2 s, so every
    active task idles unplaced.  ``preplaced``: one task is placed at 0 s
    but starts at 1 s, so it is mapped and inactive.
    """

    @pytest.mark.parametrize("case", ["offline", "preplaced"])
    @pytest.mark.parametrize("governor", ["PPM", "HPM", "HL"])
    def test_engines_agree_off_map(self, governor, case):
        obj = _build_off_map(ObjectSimulation, governor, case)
        col = _build_off_map(ColumnarSimulation, governor, case)
        _assert_equivalent(obj, col, "%s/m1/%s" % (governor, case))


class TestManyTasksEquivalence:
    """Random task mixes at several sizes, with and without LBT moves."""

    @pytest.mark.parametrize("n", [4, 17, 50])
    def test_random_mix(self, n):
        kw = dict(workload=("random", n, 7), governor="PPM", seed=7,
                  noise_w=0.0, fault=None, duration_s=3.0, power_cap_w=8.0)
        obj = _build(ObjectSimulation, **kw)
        col = _build(ColumnarSimulation, **kw)
        _assert_equivalent(obj, col, "random/n=%d" % n)


# Shapes where the vector market and LBT run and tasks move, so the
# columnar loop permutes its epoch: (tasks, task seed, fault window,
# moves executed, failed migrations).  The counts pin that each shape
# still moves what it did when it was chosen.
MOVING_SHAPES = [
    (128, 5, None, 30, 0),
    (96, 2, (FaultKind.HOTPLUG, 2.0, 1.0, "big"), 22, 12),
    (96, 4, (FaultKind.MIGRATION_FAIL, 1.0, 2.0, None), 11, 37),
]


MOVING_IDS = ["128", "96-hotplug", "96-migration-fail"]


def _build_moving(engine, n, task_seed, window):
    return _build(engine, workload=("random", n, task_seed), governor="PPM",
                  seed=task_seed, noise_w=0.0, fault=None, duration_s=6.0,
                  power_cap_w=4.0, window=window)


class TestMovingPopulationEquivalence:
    """PPM at 4 W for 6 s on populations the LBT keeps moving."""

    @pytest.mark.parametrize("n,task_seed,window,moves,failed", MOVING_SHAPES, ids=MOVING_IDS)
    def test_engines_agree_through_moves(self, n, task_seed, window, moves, failed):
        obj = _build_moving(ObjectSimulation, n, task_seed, window)
        col = _build_moving(ColumnarSimulation, n, task_seed, window)
        _assert_equivalent(obj, col, "random/n=%d/seed=%d" % (n, task_seed))
        for sim in (obj, col):
            assert sim.governor.moves_executed == moves
            assert sim.failed_migrations == failed


class TestMaskedTicksReached:
    """The shapes above still reach the columnar loop's masked tick.

    A tick takes row masks when some mapped row does not run: a migration
    froze it, or it has not started.  Each masked call of
    ``ColumnarSimulation._tick_terms`` is counted here, with its frozen
    rows (active, not runnable) and its skipped rows (not active).
    """

    @pytest.fixture
    def masked(self, monkeypatch):
        calls = []
        tick_terms = ColumnarSimulation._tick_terms

        def counting(sim, ep, now, dt, runnable):
            if runnable is not None:
                active = (now >= ep.start) & (now < ep.end)
                calls.append((int((active & ~runnable).sum()), int((~active).sum())))
            return tick_terms(sim, ep, now, dt, runnable)

        monkeypatch.setattr(ColumnarSimulation, "_tick_terms", counting)
        return calls

    @pytest.mark.parametrize("n,task_seed,window,moves,failed", MOVING_SHAPES, ids=MOVING_IDS)
    def test_moves_freeze_rows(self, masked, n, task_seed, window, moves, failed):
        _build_moving(ColumnarSimulation, n, task_seed, window)
        assert any(frozen for frozen, _skipped in masked)

    def test_a_task_placed_before_its_start_is_skipped(self, masked):
        # The arrivals shape skips no row: retirement runs before dispatch.
        _build_off_map(ColumnarSimulation, "PPM", "preplaced")
        assert any(skipped for _frozen, skipped in masked)


# Hypothesis sweep.  Short runs keep each example cheap; the space still
# crosses governor x workload x noise x thermal x estimation x fault.
_CONFIGS = st.fixed_dictionaries({
    "governor": st.sampled_from(["PPM", "HPM", "HL"]),
    "workload": st.one_of(
        st.sampled_from([("named", "m1"), ("named", "m2"), ("named", "l1")]),
        st.tuples(st.just("random"),
                  st.integers(min_value=1, max_value=12),
                  st.integers(min_value=0, max_value=9)),
    ),
    "seed": st.integers(min_value=0, max_value=2**31 - 1),
    "noise_w": st.sampled_from([0.0, 0.05]),
    "fault": st.sampled_from([
        None, "sensor-dropout", "hotplug", "heartbeat-loss", "dvfs-drop",
        "dvfs-delay", "migration-fail",
    ]),
    "thermal": st.sampled_from([None, "default"]),
    "estimation": st.sampled_from([None, "default"]),
    "duration_s": st.sampled_from([1.5, 2.0]),
})


class TestHypothesisEquivalence:
    @settings(max_examples=12, deadline=None)
    @given(cfg=_CONFIGS)
    def test_generated_config(self, cfg):
        kw = dict(
            workload=tuple(cfg["workload"]),
            governor=cfg["governor"],
            seed=cfg["seed"],
            noise_w=cfg["noise_w"],
            fault=cfg["fault"],
            duration_s=cfg["duration_s"],
            thermal=ThermalConfig() if cfg["thermal"] else None,
            estimation=EstimationConfig() if cfg["estimation"] else None,
        )
        obj = _build(ObjectSimulation, **kw)
        col = _build(ColumnarSimulation, **kw)
        _assert_equivalent(obj, col, repr(cfg))


class TestMetricsSamplesMatchExactly:
    """Full dataclass compare (not just tick_records projection)."""

    def test_sample_dataclasses_identical(self):
        kw = dict(workload=("random", 17, 7), governor="PPM", seed=7,
                  noise_w=0.0, fault=None, duration_s=3.0, power_cap_w=8.0)
        obj = _build(ObjectSimulation, **kw)
        col = _build(ColumnarSimulation, **kw)
        sa, sb = obj.metrics.samples, col.metrics.samples
        assert len(sa) == len(sb)
        for k, (x, y) in enumerate(zip(sa, sb)):
            assert asdict(x) == asdict(y), "sample %d diverged" % k
