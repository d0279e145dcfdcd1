"""Overload experiments: flash crowds against the admission ladder.

The headline question: when an open-ended arrival stream offers *more*
demand than the chip can sell power to, does market-based admission
control degrade service gracefully -- and measurably better than just
letting everything in?

Each governor runs the same flash-crowd scenario twice from identical
seeds: once with the admission ladder
(:class:`~repro.core.admission.AdmissionController`) and once with the
no-admission-control baseline (every arrival admitted at full QoS).  The
report compares the *tail* of per-task QoS over admitted stream tasks --
p50/p95/p99 of the below-minimum-heart-rate fraction -- because under
overload the mean hides exactly the tasks the crowd starves (see
PAPERS.md on energy-vs-tail-QoS frontiers).

``run_overload_soak`` additionally overlays the flash crowd on the
chaos-soak compound-fault schedule with live thermals: arrival churn,
thermal stress and injected faults at once, with the market auditor
checking every round.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.admission import AdmissionConfig, AdmissionController, OverloadManager
from ..hw import tc2_chip
from ..sim import Simulation
from ..sim.engine import derive_stream_seed
from ..tasks import ArrivalConfig, ArrivalStream, sustainable_rate_hz
from ..tasks.traces import DemandTrace
from .campaigns import (
    DEFAULT_CAMPAIGN_GOVERNORS,
    build_campaign_sim,
    build_soak_schedule,
    merged_windows,
    peak_temperature_c,
)
from .parallel import PointSpec, execute_points
from .reporting import Report

#: The canonical overload severity: burst demand at this multiple of the
#: sustainable arrival rate (see :func:`repro.tasks.sustainable_rate_hz`).
OVERLOAD_MULTIPLIER = 3.0

#: Base (pre/post burst) arrival rate as a fraction of sustainable.
BASE_RATE_FRACTION = 0.5

#: Default TDP for overload runs: loose enough (the determinism-suite
#: cap) that the arrival overload -- not the power budget -- is the
#: binding constraint, which is the failure mode this experiment
#: isolates.  The admission controller prices supply at thermally-capped
#: max frequency, a good model of what the market can sell only when the
#: TDP is not the dominant limit; pass ``power_cap_w`` explicitly to
#: study the doubly-constrained regime.
OVERLOAD_TDP_W = 10.0


def build_overload_arrivals(
    chip,
    duration_s: float,
    warmup_s: float,
    multiplier: float = OVERLOAD_MULTIPLIER,
) -> ArrivalConfig:
    """Flash-crowd arrival config calibrated to the chip's capacity.

    The base rate keeps the system comfortably under-subscribed
    (:data:`BASE_RATE_FRACTION` of sustainable); the burst jumps to
    ``multiplier`` times sustainable, starts shortly after the warm-up
    and covers roughly a third of the run, leaving a recovery tail in
    which the ladder must walk back down.
    """
    if multiplier <= 1.0:
        raise ValueError("an overload multiplier must exceed 1.0")
    probe = ArrivalConfig()
    sustainable = sustainable_rate_hz(chip, probe)
    burst_start = warmup_s + 2.0
    burst_duration = max(4.0, (duration_s - burst_start) / 3.0)
    if burst_start + burst_duration >= duration_s:
        raise ValueError(
            "run too short for a flash crowd: need warmup + 2 s lead-in, "
            "a burst, and a recovery tail"
        )
    return ArrivalConfig(
        process="flash-crowd",
        rate_hz=BASE_RATE_FRACTION * sustainable,
        burst_rate_hz=multiplier * sustainable,
        burst_start_s=burst_start,
        burst_duration_s=burst_duration,
        # Short-lived requests: churn fast enough that admission and
        # departure both happen many times inside one run.
        lifetime_s=(1.5, 4.0),
    )


def _arrival_config_from_identity(data: Dict[str, object]) -> ArrivalConfig:
    """Rebuild an :class:`ArrivalConfig` from its ``identity()`` dict."""
    return ArrivalConfig(
        **{
            **data,
            "mmpp_rates": tuple(data["mmpp_rates"]),
            "lifetime_s": tuple(data["lifetime_s"]),
            "priorities": tuple(data["priorities"]),
            "catalogue": tuple((bench, code) for bench, code in data["catalogue"]),
        }
    )


def _build_manager(
    identity: Dict[str, object], with_admission: bool
) -> OverloadManager:
    stream = ArrivalStream(
        _arrival_config_from_identity(identity["arrival"]),
        seed=derive_stream_seed(identity["seed"], "arrivals"),
        trace=(
            None
            if identity["trace"] is None
            else DemandTrace.from_json(identity["trace"])
        ),
    )
    controller = (
        AdmissionController(AdmissionConfig(**identity["admission"]))
        if with_admission
        else None
    )
    return OverloadManager(stream, controller)


@dataclass
class OverloadRun:
    """One governor under a flash crowd: admission ladder vs baseline."""

    governor: str
    offered: int
    admitted: int
    admitted_degraded: int
    queued: int
    queue_timeouts: int
    shed_tasks: int
    rejected: int
    peak_queue_depth: int
    final_state: str
    ladder_transitions: int
    #: p50/p95/p99 of per-admitted-task below-minimum-HR fraction.
    tail_qos: Dict[str, float]
    #: p50/p95/p99 of seconds from arrival to admission.
    admission_latency_s: Dict[str, float]
    average_power_w: float
    audit_violations: int
    #: Same stream with no admission control (everything admitted).
    baseline_admitted: int
    baseline_tail_qos: Dict[str, float]
    baseline_audit_violations: int

    @property
    def p99_improvement(self) -> float:
        """How much p99 QoS violation the ladder removes vs the baseline."""
        return self.baseline_tail_qos["p99"] - self.tail_qos["p99"]


@dataclass
class OverloadResult(Report):
    """One overload scenario swept across governors."""

    workload: str
    duration_s: float
    seed: int
    tdp_w: float
    multiplier: float
    arrival_rate_hz: float
    burst_rate_hz: float
    burst_window: Tuple[float, float]
    runs: List[OverloadRun] = field(default_factory=list)

    COLUMNS = (
        ("governor", "<10", "", lambda run: run.governor),
        ("offered", ">8", "d", lambda run: run.offered),
        ("admit", ">6", "d", lambda run: run.admitted),
        ("degr", ">5", "d", lambda run: run.admitted_degraded),
        ("queue", ">6", "d", lambda run: run.queued),
        ("shed", ">5", "d", lambda run: run.shed_tasks),
        ("rej", ">5", "d", lambda run: run.rejected),
        ("peakQ", ">6", "d", lambda run: run.peak_queue_depth),
        ("p99 miss", ">9", ".3f", lambda run: run.tail_qos["p99"]),
        ("base p99", ">9", ".3f", lambda run: run.baseline_tail_qos["p99"]),
        ("lat p95", ">8", ".3f", lambda run: run.admission_latency_s["p95"]),
        ("audits", ">7", "d", lambda run: run.audit_violations),
    )

    @property
    def stem(self) -> str:
        return f"overload_{self.workload}"

    def title(self) -> str:
        return (
            f"Overload: flash crowd at {self.multiplier:.1f}x sustainable  "
            f"(workload {self.workload}, {self.duration_s:.0f} s, seed "
            f"{self.seed}, TDP {self.tdp_w:.1f} W, "
            f"{self.arrival_rate_hz:.1f} -> {self.burst_rate_hz:.1f} arr/s "
            f"over t=[{self.burst_window[0]:.0f}, {self.burst_window[1]:.0f}])"
        )


def _overload_identity(
    workload: str,
    duration_s: float,
    warmup_s: float,
    seed: int,
    cap: float,
    governors: Sequence[str],
    multiplier: float,
    arrival: ArrivalConfig,
    admission: AdmissionConfig,
    trace_json: Optional[str],
) -> Dict[str, object]:
    return {
        "workload": workload,
        "duration_s": duration_s,
        "warmup_s": warmup_s,
        "seed": seed,
        "tdp_w": cap,
        "governors": list(governors),
        "multiplier": multiplier,
        "arrival": arrival.identity(),
        "admission": asdict(admission),
        "trace": trace_json,
    }


def _run_overload_sim(
    identity: Dict[str, object], name: str, with_admission: bool
) -> Tuple[Simulation, OverloadManager]:
    sim, _ = build_campaign_sim(name, identity)
    manager = _build_manager(identity, with_admission).attach(sim)
    sim.run(identity["duration_s"])
    return sim, manager


def _tail(metrics, names: Sequence[str]) -> Dict[str, float]:
    return metrics.violation_fraction_percentiles(names)


def _committed_population(sim, manager: OverloadManager) -> List[str]:
    """Every task the system is committed to serve: the resident base
    workload plus admitted-and-not-shed stream tasks.

    The resident tasks belong in the violation population -- they are
    standing admissions, and protecting them is half of what the ladder
    buys (under the no-control baseline the crowd starves them too).
    Shed tasks are excluded: shedding *withdraws* the commitment so the
    rest of this population can be served.
    """
    controller = manager.controller
    shed = set(controller.shed_names) if controller is not None else set()
    return [task.name for task in sim.tasks if task.name not in shed]


def _latency_tail(latencies: Sequence[float]) -> Dict[str, float]:
    from ..sim.metrics import MetricsCollector

    return {
        f"p{pct:g}": MetricsCollector.percentile(list(latencies), pct)
        for pct in (50.0, 95.0, 99.0)
    }


def _overload_point(identity: Dict[str, object], name: str) -> OverloadRun:
    """One governor's paired (admission, baseline) flash-crowd runs.

    Top-level and fed only picklable arguments so it runs identically
    in-process and inside a pool worker.  Both runs share the scenario
    identity -- and therefore the exact same arrival stream -- so the
    comparison isolates the admission policy.
    """
    sim, manager = _run_overload_sim(identity, name, with_admission=True)
    base_sim, base_manager = _run_overload_sim(identity, name, with_admission=False)
    controller = manager.controller
    stats = controller.stats()
    return OverloadRun(
        governor=name,
        offered=stats["offered"],
        admitted=stats["admitted"],
        admitted_degraded=stats["admitted_degraded"],
        queued=stats["queued"],
        queue_timeouts=stats["queue_timeouts"],
        shed_tasks=stats["shed_tasks"],
        rejected=stats["rejected"],
        peak_queue_depth=stats["peak_queue_depth"],
        final_state=controller.state.value,
        ladder_transitions=len(controller.transitions),
        tail_qos=_tail(sim.metrics, _committed_population(sim, manager)),
        admission_latency_s=_latency_tail(controller.admission_latencies),
        average_power_w=sim.metrics.average_power_w(),
        audit_violations=sim.metrics.audit_violation_count(),
        baseline_admitted=base_manager.baseline_admitted,
        baseline_tail_qos=_tail(
            base_sim.metrics, _committed_population(base_sim, base_manager)
        ),
        baseline_audit_violations=base_sim.metrics.audit_violation_count(),
    )


def run_overload(
    governors: Sequence[str] = DEFAULT_CAMPAIGN_GOVERNORS,
    workload: str = "l1",
    duration_s: float = 30.0,
    warmup_s: float = 3.0,
    seed: int = 1,
    multiplier: float = OVERLOAD_MULTIPLIER,
    power_cap_w: Optional[float] = None,
    admission: Optional[AdmissionConfig] = None,
    trace: Optional[DemandTrace] = None,
    jobs: Optional[int] = None,
) -> OverloadResult:
    """Drive every governor through the same flash crowd, twice each.

    A light base workload (default ``l1``) plays the chip's resident
    tasks; on top, a flash-crowd arrival stream jumps to ``multiplier``
    times the sustainable rate.  Each governor is measured with the
    admission ladder and against the admit-everything baseline from the
    identical stream; ``trace`` optionally rate-modulates both.

    ``jobs`` (default ``$REPRO_JOBS`` or 1) spreads governor points
    across worker processes; streams are rebuilt per point from the
    scenario identity, so results are bitwise independent of ``jobs``.
    """
    cap = power_cap_w if power_cap_w is not None else OVERLOAD_TDP_W
    chip = tc2_chip()
    arrival = build_overload_arrivals(chip, duration_s, warmup_s, multiplier)
    identity = _overload_identity(
        workload,
        duration_s,
        warmup_s,
        seed,
        cap,
        governors,
        multiplier,
        arrival,
        admission or AdmissionConfig(),
        None if trace is None else trace.to_json(),
    )
    result = OverloadResult(
        workload=workload,
        duration_s=duration_s,
        seed=seed,
        tdp_w=cap,
        multiplier=multiplier,
        arrival_rate_hz=arrival.rate_hz,
        burst_rate_hz=arrival.burst_rate_hz,
        burst_window=(
            arrival.burst_start_s,
            arrival.burst_start_s + arrival.burst_duration_s,
        ),
    )
    specs = [
        PointSpec(
            fn=_overload_point,
            label=f"overload/{name}",
            args=(identity, name),
        )
        for name in governors
    ]
    result.runs.extend(execute_points(specs, jobs=jobs))
    return result


# ----------------------------------------------------------------------
# Overload soak: flash crowds on top of compound faults and thermals
# ----------------------------------------------------------------------
@dataclass
class OverloadSoakRun:
    """One governor through faults + thermal stress + flash crowds."""

    governor: str
    offered: int
    admitted: int
    shed_tasks: int
    rejected: int
    queue_timeouts: int
    peak_queue_depth: int
    final_state: str
    tail_qos: Dict[str, float]
    time_over_tcrit_s: float
    peak_temperature_c: Optional[float]
    unrecovered_trips: int
    audit_violations: int
    average_power_w: float
    fault_stats: Dict[str, int] = field(default_factory=dict)


@dataclass
class OverloadSoakResult(Report):
    """Every governor through the same overload-plus-faults soak."""

    workload: str
    duration_s: float
    seed: int
    tdp_w: float
    multiplier: float
    windows: List[Tuple[float, float]]
    runs: List[OverloadSoakRun] = field(default_factory=list)

    COLUMNS = (
        ("governor", "<10", "", lambda run: run.governor),
        ("offered", ">8", "d", lambda run: run.offered),
        ("admit", ">6", "d", lambda run: run.admitted),
        ("shed", ">5", "d", lambda run: run.shed_tasks),
        ("rej", ">5", "d", lambda run: run.rejected),
        ("t/o", ">5", "d", lambda run: run.queue_timeouts),
        ("peakQ", ">6", "d", lambda run: run.peak_queue_depth),
        ("p99 miss", ">9", ".3f", lambda run: run.tail_qos["p99"]),
        ("t>Tcrit", ">8", ".2f", lambda run: run.time_over_tcrit_s),
        ("unrec", ">6", "d", lambda run: run.unrecovered_trips),
        ("audits", ">7", "d", lambda run: run.audit_violations),
        ("avg W", ">7", ".2f", lambda run: run.average_power_w),
    )

    @property
    def stem(self) -> str:
        return f"overload_soak_{self.workload}"

    def title(self) -> str:
        return (
            f"Overload soak  (workload {self.workload}, "
            f"{self.duration_s:.0f} s, seed {self.seed}, TDP "
            f"{self.tdp_w:.1f} W, {self.multiplier:.1f}x crowd, "
            f"{len(self.windows)} merged fault windows)"
        )


def _overload_soak_point(identity: Dict[str, object], name: str) -> OverloadSoakRun:
    """One governor's overload soak; picklable for pool workers.

    Live thermal tracking with the full protection ladder, the chaos
    soak's compound-fault schedule, the market auditor, *and* a
    flash-crowd arrival stream behind the admission controller -- the
    admission ladder must hold while the thermal ladder is also active
    and sensors are faulting underneath both.
    """
    schedule = build_soak_schedule(
        identity["duration_s"], identity["warmup_s"], tc2_chip()
    )
    sim, injector = build_campaign_sim(name, identity, schedule, thermal=True)
    manager = _build_manager(identity, with_admission=True).attach(sim)
    metrics = sim.run(identity["duration_s"])
    controller = manager.controller
    stats = controller.stats()
    supervisor = sim.thermal_supervisor
    return OverloadSoakRun(
        governor=name,
        offered=stats["offered"],
        admitted=stats["admitted"],
        shed_tasks=stats["shed_tasks"],
        rejected=stats["rejected"],
        queue_timeouts=stats["queue_timeouts"],
        peak_queue_depth=stats["peak_queue_depth"],
        final_state=controller.state.value,
        tail_qos=_tail(metrics, _committed_population(sim, manager)),
        time_over_tcrit_s=sim.time_over_tcrit_s,
        peak_temperature_c=peak_temperature_c(metrics),
        unrecovered_trips=(
            supervisor.unrecovered_trips if supervisor is not None else 0
        ),
        audit_violations=metrics.audit_violation_count(),
        average_power_w=metrics.average_power_w(),
        fault_stats=injector.stats(),
    )


def run_overload_soak(
    governors: Sequence[str] = DEFAULT_CAMPAIGN_GOVERNORS,
    workload: str = "m2",
    duration_s: float = 60.0,
    warmup_s: float = 5.0,
    seed: int = 1,
    multiplier: float = OVERLOAD_MULTIPLIER,
    power_cap_w: Optional[float] = None,
    trace: Optional[DemandTrace] = None,
    jobs: Optional[int] = None,
) -> OverloadSoakResult:
    """Overlay flash crowds on the chaos soak's faults and thermals."""
    cap = power_cap_w if power_cap_w is not None else OVERLOAD_TDP_W
    chip = tc2_chip()
    arrival = build_overload_arrivals(chip, duration_s, warmup_s, multiplier)
    identity = _overload_identity(
        workload,
        duration_s,
        warmup_s,
        seed,
        cap,
        governors,
        multiplier,
        arrival,
        AdmissionConfig(),
        None if trace is None else trace.to_json(),
    )
    schedule = build_soak_schedule(duration_s, warmup_s, chip)
    result = OverloadSoakResult(
        workload=workload,
        duration_s=duration_s,
        seed=seed,
        tdp_w=cap,
        multiplier=multiplier,
        windows=merged_windows(schedule.windows()),
    )
    specs = [
        PointSpec(
            fn=_overload_soak_point,
            label=f"overload-soak/{name}",
            args=(identity, name),
        )
        for name in governors
    ]
    result.runs.extend(execute_points(specs, jobs=jobs))
    return result
