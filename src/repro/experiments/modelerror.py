"""Model-error campaign: governor robustness to estimation error and drift.

The estimated-power pipeline (``SimConfig.estimation``) replaces the
metered sensor with a counter-fitted model; this campaign measures what
that costs when the model is wrong.  Two error axes are swept jointly,
per governor:

* **error magnitude** -- a :attr:`~repro.faults.FaultKind.COUNTER_BIAS`
  window scales the counters feeding the estimator by ``1 + error``, so
  the fitted model suddenly sees inputs that no longer match the power
  it is asked to explain;
* **drift rate** -- a :attr:`~repro.faults.FaultKind.POWER_MODEL_DRIFT`
  window walks the true silicon draw away from any fitted model at
  ``rate`` per second (aging / thermally-dependent leakage).

Every point runs with the estimation pipeline enabled and the governors
trading on the estimated signal, and reports the robustness headlines:
QoS inside vs. outside the fault windows, seconds of TDP overshoot,
estimation-error percentiles, and the time from fault onset to the
supervisor's analytic-model fallback (``time_to_fallback_s``) together
with its full transition telemetry.

Reports land in ``results/modelerror.txt`` (+ ``.json``); the CLI
exposes this as ``repro-experiments model-error``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..faults import FaultEvent, FaultKind, FaultSchedule
from ..hw import tc2_chip
from .campaigns import DEFAULT_CAMPAIGN_GOVERNORS, build_campaign_sim
from .harness import capped_tdp_w
from .parallel import PointSpec, execute_points
from .reporting import Report

#: Counter-bias window: (offset after warm-up, length).
BIAS_START_AFTER_WARMUP_S = 2.0
BIAS_WINDOW_S = 6.0
#: Power-model-drift window: (offset after warm-up, length).
DRIFT_START_AFTER_WARMUP_S = 10.0
DRIFT_WINDOW_S = 10.0

#: Default sweep grid.  ``0.0`` on either axis is the clean-signal
#: anchor every other point is judged against.
DEFAULT_ERROR_MAGNITUDES: Tuple[float, ...] = (0.0, 0.5, 2.0)
DEFAULT_DRIFT_RATES: Tuple[float, ...] = (0.0, 0.2, 0.5)


@dataclass
class ModelErrorRun:
    """Robustness summary of one governor at one (error, drift) point."""

    governor: str
    error_magnitude: float
    drift_rate_per_s: float
    miss_fraction_in_fault: float
    miss_fraction_outside_fault: float
    tdp_violation_s: float
    average_power_w: float
    estimation_error_w: Dict[str, float]
    time_to_fallback_s: Optional[float]
    estimator_state: str
    estimator_transitions: List[tuple]
    supervisor_stats: Dict[str, int]
    audit_violations: int
    fault_stats: Dict[str, int] = field(default_factory=dict)


@dataclass
class ModelErrorResult(Report):
    """One model-error campaign: the full grid across governors."""

    workload: str
    duration_s: float
    seed: int
    tdp_w: float
    error_magnitudes: List[float]
    drift_rates: List[float]
    runs: List[ModelErrorRun] = field(default_factory=list)

    COLUMNS = (
        ("governor", "<9", "", lambda run: run.governor),
        ("error", ">6", ".2f", lambda run: run.error_magnitude),
        ("drift/s", ">8", ".2f", lambda run: run.drift_rate_per_s),
        ("miss in", ">8", ".3f", lambda run: run.miss_fraction_in_fault),
        ("miss out", ">9", ".3f", lambda run: run.miss_fraction_outside_fault),
        ("TDP-viol (s)", ">13", ".2f", lambda run: run.tdp_violation_s),
        ("est p50", ">8", ".3f", lambda run: run.estimation_error_w.get("p50", 0.0)),
        ("est p95", ">8", ".3f", lambda run: run.estimation_error_w.get("p95", 0.0)),
        ("t->fallback", ">12", ".2f", lambda run: run.time_to_fallback_s),
        ("final", ">8", "", lambda run: run.estimator_state),
        ("audits", ">7", "d", lambda run: run.audit_violations),
    )
    stem = "modelerror"

    def title(self) -> str:
        return (
            f"Model-error campaign  (workload {self.workload}, "
            f"{self.duration_s:.0f} s, seed {self.seed}, "
            f"TDP {self.tdp_w:.1f} W, errors {self.error_magnitudes}, "
            f"drift rates {self.drift_rates}/s)"
        )


def build_model_error_schedule(
    error_magnitude: float,
    drift_rate_per_s: float,
    duration_s: float,
    warmup_s: float,
    chip,
) -> FaultSchedule:
    """The disturbance for one grid point: bias window, then drift window.

    Both hit the fastest cluster (the dominant power term, so model
    error there matters most).  A zero on either axis simply omits that
    window; the (0, 0) anchor point runs fault-free.
    """
    if error_magnitude < 0:
        raise ValueError("error magnitude must be non-negative")
    if drift_rate_per_s < 0:
        raise ValueError("drift rate must be non-negative")
    hot = max(chip.clusters, key=lambda c: c.max_supply_pus).cluster_id
    events = []
    if error_magnitude > 0:
        start = warmup_s + BIAS_START_AFTER_WARMUP_S
        events.append(
            FaultEvent(
                FaultKind.COUNTER_BIAS,
                start,
                min(BIAS_WINDOW_S, max(duration_s - start - 1.0, 0.5)),
                target=hot,
                magnitude=1.0 + error_magnitude,
            )
        )
    if drift_rate_per_s > 0:
        start = warmup_s + DRIFT_START_AFTER_WARMUP_S
        window = min(DRIFT_WINDOW_S, max(duration_s - start - 1.0, 0.5))
        events.append(
            FaultEvent(
                FaultKind.POWER_MODEL_DRIFT,
                start,
                window,
                target=hot,
                magnitude=drift_rate_per_s * window,
            )
        )
    return FaultSchedule(events)


def _model_error_identity(
    workload: str,
    duration_s: float,
    warmup_s: float,
    seed: int,
    cap: float,
    governors: Sequence[str],
    error_magnitudes: Sequence[float],
    drift_rates: Sequence[float],
) -> Dict[str, object]:
    return {
        "workload": workload,
        "duration_s": duration_s,
        "warmup_s": warmup_s,
        "seed": seed,
        "tdp_w": cap,
        "governors": list(governors),
        "error_magnitudes": list(error_magnitudes),
        "drift_rates": list(drift_rates),
    }


def _time_to_fallback(supervisor, fault_start_s: Optional[float]) -> Optional[float]:
    """Seconds from fault onset to the first analytic-model fallback."""
    if supervisor is None or fault_start_s is None:
        return None
    for time_s, _old, new, _score in supervisor.transitions:
        if new == "fallback" and time_s >= fault_start_s:
            return time_s - fault_start_s
    return None


def _model_error_point(
    identity: Dict[str, object],
    name: str,
    error_magnitude: float,
    drift_rate_per_s: float,
) -> ModelErrorRun:
    """One (governor, error, drift) grid point; picklable for workers."""
    schedule = build_model_error_schedule(
        error_magnitude,
        drift_rate_per_s,
        identity["duration_s"],
        identity["warmup_s"],
        tc2_chip(),
    )
    sim, injector = build_campaign_sim(name, identity, schedule, estimation=True)
    metrics = sim.run(identity["duration_s"])
    windows = list(schedule.windows())
    supervisor = sim.estimation.supervisor
    fault_start = min((start for start, _ in windows), default=None)
    return ModelErrorRun(
        governor=name,
        error_magnitude=error_magnitude,
        drift_rate_per_s=drift_rate_per_s,
        miss_fraction_in_fault=metrics.miss_fraction_in_windows(windows),
        miss_fraction_outside_fault=metrics.miss_fraction_outside_windows(
            windows
        ),
        tdp_violation_s=metrics.tdp_violation_seconds(
            identity["tdp_w"], sim.dt
        ),
        average_power_w=metrics.average_power_w(),
        estimation_error_w=metrics.estimation_error_percentiles(),
        time_to_fallback_s=_time_to_fallback(supervisor, fault_start),
        estimator_state=(
            supervisor.state.value if supervisor is not None else "unsupervised"
        ),
        estimator_transitions=(
            list(supervisor.transitions) if supervisor is not None else []
        ),
        supervisor_stats=(
            supervisor.stats() if supervisor is not None else {}
        ),
        audit_violations=metrics.audit_violation_count(),
        fault_stats=injector.stats(),
    )


def run_model_error_campaign(
    governors: Sequence[str] = DEFAULT_CAMPAIGN_GOVERNORS,
    workload: str = "m2",
    duration_s: float = 30.0,
    warmup_s: float = 5.0,
    error_magnitudes: Sequence[float] = DEFAULT_ERROR_MAGNITUDES,
    drift_rates: Sequence[float] = DEFAULT_DRIFT_RATES,
    seed: int = 1,
    power_cap_w: Optional[float] = None,
    jobs: Optional[int] = None,
) -> ModelErrorResult:
    """Sweep estimation error magnitude x drift rate across governors.

    Every grid point replays the same workload under the same seed with
    only the disturbance changing, so differences between rows are
    attributable to the (error, drift) pair alone.  The Figure 6 power
    cap applies by default so TDP overshoot is meaningful.
    """
    if not error_magnitudes or not drift_rates:
        raise ValueError("need at least one error magnitude and one drift rate")
    cap = power_cap_w if power_cap_w is not None else capped_tdp_w()
    identity = _model_error_identity(
        workload,
        duration_s,
        warmup_s,
        seed,
        cap,
        governors,
        error_magnitudes,
        drift_rates,
    )
    result = ModelErrorResult(
        workload=workload,
        duration_s=duration_s,
        seed=seed,
        tdp_w=cap,
        error_magnitudes=list(error_magnitudes),
        drift_rates=list(drift_rates),
    )
    specs = [
        PointSpec(
            fn=_model_error_point,
            label=f"model-error {name}/e{error:g}/d{drift:g}",
            args=(identity, name, error, drift),
        )
        for name in governors
        for error in error_magnitudes
        for drift in drift_rates
    ]
    result.runs.extend(execute_points(specs, jobs=jobs))
    return result
