"""The benchmark's four workloads and the simulations each one runs.

A workload is a fixed list of simulations (:class:`SimSpec`).  One pass
of a workload builds and runs every simulation in order; the first
``step()`` of each is set-up, the remaining ``ticks - 1`` steps are
timed.  Only ``--seed`` varies the inputs: it feeds ``SimConfig.seed``
and the ``ArrivalStream``s.  The paper's six-task sets draw nothing at
random (no sensor noise in the Figure 6 protocol), and ``population_10k``
runs one fixed draw of ``random_tasks`` (see ``POPULATION_TASK_SEED``),
so these two give the same outcome under every seed.

The builders use the same library calls as ``many_tasks_10k``,
``arrival_churn`` and ``estimated_power`` in
``benchmarks/perf/scenarios.py``: ``random_tasks`` + ``make_governor``,
``build_overload_arrivals`` + ``OverloadManager``, and ``EstimationConfig``
+ a ``POWER_MODEL_DRIFT`` fault.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.checkpoint import CheckpointManager, canonical_json, tick_records
from repro.core import AdmissionConfig, AdmissionController, OverloadManager
from repro.core.framework import PPMGovernor
from repro.core.powerest import EstimationConfig
from repro.experiments.campaigns import campaign_thermal_config
from repro.experiments.harness import GOVERNOR_NAMES, make_governor
from repro.experiments.overload import OVERLOAD_TDP_W, build_overload_arrivals
from repro.faults import FaultInjector, FaultKind, single_fault
from repro.hw import TC2_CAPPED_TDP_W, tc2_chip
from repro.sim import SimConfig, Simulation, derive_stream_seed
from repro.tasks import ArrivalStream, build_workload, random_tasks
from repro.tasks.workloads import WORKLOAD_ORDER

DT_S = 0.01

#: ``population_10k`` times 500 ticks a pass, so a pair of passes (1,000
#: timed ticks, about 15 s on a 2-vCPU Xeon VM) fits in one run.
POPULATION_S = 5.01

#: ``population_10k`` always draws the same 10,000 tasks, the ones
#: ``many_tasks_10k`` in ``benchmarks/perf/scenarios.py`` runs.  How many
#: LBT moves a population makes is a property of the draw (52 to 70 in
#: 1,000 ticks over ten seeds), and a tick that moves a task costs about
#: 150 ms, so a drawn population would move throughput by more than its
#: bound from one seed to the next.
POPULATION_TASK_SEED = 7

#: ``overload_churn`` runs this many independent arrival streams a pass,
#: each seeded from ``--seed``: the arrivals a seed draws set how many
#: tasks live at once, and so the pass's memory and tick cost; three
#: streams average that out.
CHURN_STREAMS = 3

#: ``full_stack`` runs six 2-simulated-second simulations a pass, each
#: seeded from ``--seed``, and saves a checkpoint every 0.1 simulated s:
#: 10% of the ticks.  Each save serialises the whole history, so saves
#: grow through a run, and the p99 tick is one of the last saves of a
#: simulation.  With one 12 s simulation the p99 was a single mid-run save
#: whose time moved 9% (interquartile range over ten seeds) with the
#: host's noise; with six short ones it sits among the last saves of all
#: six, and moved 5% on the same host in the same hour.
FULL_STACK_SIMS = 6
FULL_STACK_S = 2.0
CHECKPOINT_INTERVAL_S = 0.1

#: Summary key of the telemetry digest (six-task simulations only).
DIGEST_KEY = "telemetry_sha256"

#: Per-task summary metrics materialise one record per task per tick;
#: above this population they cost more than the run itself.
MAX_TASKS_FOR_MISS = 1000


@dataclass(frozen=True)
class SimSpec:
    """One simulation of a workload pass."""

    name: str
    #: Total ``step()`` calls; the first one is set-up, the rest are timed.
    ticks: int
    #: Builds the simulation; takes a scratch directory it may write to.
    build: Callable[[str], Simulation]


@dataclass(frozen=True)
class Workload:
    """A benchmark workload; ``BENCHMARK.json`` says why each one exists."""

    name: str
    #: ``(seed, smoke) -> simulations``; ``smoke`` gives a short variant.
    specs: Callable[[int, bool], List[SimSpec]]
    #: Whether ``--seed`` changes any simulated outcome.
    seeded: bool
    #: Layers that must record calls (True) or must record none (False)
    #: in a traced pass; layers not listed are not checked.
    expected_calls: Dict[str, bool]
    #: The host-speed probe (``probes.py``) that slows the way its ticks do.
    probe: str = "interpreter"


def _ticks(duration_s: float) -> int:
    return int(round(duration_s / DT_S))


# -- builders ------------------------------------------------------------------
def paper_sim(set_id: str, governor: str, seed: int, duration_s: float, _scratch: str) -> Simulation:
    """One Figure 6 data point: a Table 6 set under a governor at 4 W."""
    return Simulation(
        tc2_chip(),
        build_workload(set_id),
        make_governor(governor, power_cap_w=TC2_CAPPED_TDP_W),
        config=SimConfig(seed=seed, metrics_warmup_s=duration_s / 4.0),
    )


def population_sim(n_tasks: int, seed: int, duration_s: float, _scratch: str) -> Simulation:
    """``n_tasks`` synthetic tasks under PPM at 8 W (Table 7 scale)."""
    return Simulation(
        tc2_chip(),
        random_tasks(n_tasks, seed=POPULATION_TASK_SEED),
        make_governor("PPM", power_cap_w=8.0),
        config=SimConfig(seed=seed, metrics_warmup_s=duration_s / 4.0),
    )


def churn_sim(seed: int, duration_s: float, _scratch: str) -> Simulation:
    """Flash-crowd arrivals on l1 through the admission ladder under PPM."""
    chip = tc2_chip()
    warmup_s = duration_s / 4.0
    sim = Simulation(
        chip,
        build_workload("l1"),
        make_governor("PPM", power_cap_w=OVERLOAD_TDP_W),
        config=SimConfig(seed=seed, metrics_warmup_s=warmup_s),
    )
    OverloadManager(
        ArrivalStream(build_overload_arrivals(chip, duration_s, warmup_s), seed=seed),
        AdmissionController(AdmissionConfig()),
    ).attach(sim)
    return sim


def full_stack_sim(seed: int, duration_s: float, scratch: str) -> Simulation:
    """h2 under PPM at 4 W with every observation and robustness layer on.

    Thermal protection, estimated power under a model-drift fault, the
    market auditor, 0.05 W sensor noise and periodic checkpoints.
    Checkpoint cost grows with the run (each save serialises the whole
    telemetry history), so the run length is part of the workload.
    """
    chip = tc2_chip()
    sim = Simulation(
        chip,
        build_workload("h2"),
        make_governor("PPM", power_cap_w=TC2_CAPPED_TDP_W),
        config=SimConfig(
            seed=seed,
            metrics_warmup_s=duration_s / 4.0,
            sensor_noise_std_w=0.05,
            audit=True,
            thermal=campaign_thermal_config(chip),
            estimation=EstimationConfig(),
        ),
    )
    FaultInjector(
        sim,
        single_fault(
            FaultKind.POWER_MODEL_DRIFT,
            duration_s / 2.0,
            duration_s / 4.0,
            target="big",
            magnitude=3.0,
        ),
    ).attach()
    CheckpointManager(os.path.join(scratch, "checkpoints"), interval_s=CHECKPOINT_INTERVAL_S).attach(sim)
    return sim


# -- workload lists --------------------------------------------------------------
def _spec(name: str, duration_s: float, builder, *args) -> SimSpec:
    return SimSpec(name, _ticks(duration_s), functools.partial(builder, *args, duration_s))


def paper_specs(seed: int, smoke: bool) -> List[SimSpec]:
    if smoke:
        points = [("l1", "PPM"), ("m2", "HPM"), ("h3", "HL")]
        duration_s = 1.0
    else:
        points = [(s, g) for s in WORKLOAD_ORDER for g in GOVERNOR_NAMES]
        duration_s = 20.0
    return [
        _spec(f"{s}/{g}", duration_s, paper_sim, s, g, seed) for s, g in points
    ]


def population_specs(seed: int, smoke: bool) -> List[SimSpec]:
    # The set-up tick plus 500 timed ticks.
    duration_s = 0.21 if smoke else POPULATION_S
    return [_spec("10k/PPM", duration_s, population_sim, 10_000, seed)]


def churn_specs(seed: int, smoke: bool) -> List[SimSpec]:
    return [
        _spec(f"l1+arrivals#{i}/PPM", 10.0 if smoke else 60.0, churn_sim,
              derive_stream_seed(seed, f"churn{i}"))
        for i in range(1 if smoke else CHURN_STREAMS)
    ]


def full_stack_specs(seed: int, smoke: bool) -> List[SimSpec]:
    return [
        _spec(f"h2+all#{i}/PPM", FULL_STACK_S, full_stack_sim, derive_stream_seed(seed, f"full{i}"))
        for i in range(1 if smoke else FULL_STACK_SIMS)
    ]


#: Layers every workload exercises.
_BUSY_LAYERS = (
    "sim.step", "sim.placement", "governor", "core.market", "core.lbt",
    "hw.chip", "sim.dispatch", "hw.sensor", "sim.metrics",
)
#: Layers only ``full_stack`` switches on.
_FULL_STACK_LAYERS = (
    "core.audit", "hw.thermal", "core.powerest",
    "checkpoint", "checkpoint.snapshot", "checkpoint.write",
)


def _calls(admission: bool = False, full_stack: bool = False) -> Dict[str, bool]:
    return {
        **dict.fromkeys(_BUSY_LAYERS, True),
        "core.admission": admission,
        **dict.fromkeys(_FULL_STACK_LAYERS, full_stack),
    }


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("paper_sets", paper_specs, seeded=False, expected_calls=_calls()),
        Workload("population_10k", population_specs, seeded=False, expected_calls=_calls(), probe="numpy"),
        Workload("overload_churn", churn_specs, seeded=True, expected_calls=_calls(admission=True)),
        Workload("full_stack", full_stack_specs, seeded=True, expected_calls=_calls(full_stack=True)),
    )
}


# -- outcomes --------------------------------------------------------------------
def summarize(sim: Simulation) -> Dict[str, object]:
    """The outcome record a pass pins and checks for one simulation."""
    sim.sync()
    intra, inter = sim.migrations.counts()
    summary: Dict[str, object] = {
        "ticks": sim.tick_index,
        "energy_j": sim.energy.total_energy_j,
        "intra_migrations": intra,
        "inter_migrations": inter,
        "failed_migrations": sim.failed_migrations,
        "sensor_read_failures": sim.sensor_read_failures,
    }
    if len(sim.tasks) <= MAX_TASKS_FOR_MISS:
        summary["miss_fraction"] = sim.metrics.any_task_miss_fraction()
        summary["average_power_w"] = sim.metrics.average_power_w()
    else:
        summary["average_power_w"] = sim.energy.average_power_w
    if isinstance(sim.governor, PPMGovernor):
        summary["lbt_moves"] = sim.governor.moves_executed
    if sim.arrivals is not None:
        summary["admission"] = dict(sim.arrivals.stats())
    if sim.checkpointer is not None:
        summary["checkpoint_saves"] = sim.checkpointer.saves
    if sim.auditor is not None:
        summary["audit_violations"] = sim.metrics.audit_violation_count()
    return summary


def telemetry_digest(sim: Simulation) -> str:
    """sha256 of the full per-tick telemetry, as the golden digests pin it."""
    payload = canonical_json(tick_records(sim.metrics))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def check_outcome(spec: SimSpec, summary: Dict[str, object], pinned: Optional[dict]) -> List[str]:
    """Reasons ``summary`` is wrong; empty when it is correct.

    Invariants hold under every seed; ``pinned`` (the expected record for
    this seed, when one is pinned) is compared field by field, exactly.
    """
    errors = []
    if summary["ticks"] != spec.ticks:
        errors.append(f"ran {summary['ticks']} ticks, expected {spec.ticks}")
    for key in ("energy_j", "average_power_w"):
        value = summary[key]
        if not (math.isfinite(value) and value > 0.0):
            errors.append(f"{key} = {value!r}")
    miss = summary.get("miss_fraction")
    if miss is not None and not 0.0 <= miss <= 1.0:
        errors.append(f"miss_fraction = {miss!r}")
    if summary.get("audit_violations"):
        errors.append(f"{summary['audit_violations']} market audit violations")
    saves = summary.get("checkpoint_saves")
    if saves is not None and saves != spec.ticks // _ticks(CHECKPOINT_INTERVAL_S):
        errors.append(f"{saves} checkpoint saves in {spec.ticks} ticks")
    adm = summary.get("admission")
    if adm is not None:
        settled = adm["admitted"] + adm["rejected"] + adm["queue_timeouts"] + adm["queue_depth"]
        if adm["offered"] <= 0 or settled != adm["offered"]:
            errors.append(f"admission does not balance: {adm}")
    if pinned is not None:
        for key, want in pinned.items():
            if key == DIGEST_KEY and key not in summary:
                continue  # digests are computed in the traced pass only
            got = summary.get(key)
            if got != want:
                errors.append(f"{key}: got {got!r}, pinned {want!r}")
    return errors
