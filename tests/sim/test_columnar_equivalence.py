"""Differential equivalence: columnar engine vs reference object engine.

The columnar tick engine (:mod:`repro.sim.columnar`) promises *bit-exact*
telemetry: every per-tick record, every task attribute, every load-tracker
entry (including dict insertion order) must match the per-object reference
loop.  Both sides are built by class, so every comparison runs both loops
at any task count.  These tests hold the engine to that promise two ways:

* six pinned golden scenarios -- the same configurations the determinism
  golden digests pin -- run under both engines and compared tick-by-tick,
  failing with the *first divergent tick* and the fields that differ;
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
from repro.core.powerest import EstimationConfig
from repro.experiments.campaigns import CAMPAIGN_FAULTS, build_campaign_schedule
from repro.experiments.harness import make_governor
from repro.faults import FaultInjector
from repro.hw import tc2_chip
from repro.hw.thermal import ThermalConfig
from repro.sim import SimConfig
from repro.sim.columnar import ColumnarSimulation
from repro.sim.engine import ObjectSimulation
from repro.tasks import build_workload, random_tasks


def _build(engine, *, workload, governor, seed, noise_w, fault, duration_s,
           thermal=None, estimation=None, power_cap_w=10.0):
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
    for ta, tb in zip(obj.tasks, col.tasks):
        for attr in ("total_beats", "total_work_pu_s", "last_supply_pus",
                     "last_consumed_pus", "last_demand_pus", "frozen_until",
                     "migrations"):
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


class TestManyTasksEquivalence:
    """The perf-bench shape itself: random task mixes at several sizes."""

    @pytest.mark.parametrize("n", [4, 17, 50])
    def test_random_mix(self, n):
        kw = dict(workload=("random", n, 7), governor="PPM", seed=7,
                  noise_w=0.0, fault=None, duration_s=3.0, power_cap_w=8.0)
        obj = _build(ObjectSimulation, **kw)
        col = _build(ColumnarSimulation, **kw)
        _assert_equivalent(obj, col, "random/n=%d" % n)


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
    "fault": st.sampled_from([None, "sensor-dropout", "hotplug"]),
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
