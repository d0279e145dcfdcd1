"""Measurement collection: QoS misses, power, frequency, migrations.

Reproduces the quantities the paper reports:

* Figures 4/6 -- "percentage of time the reference heart rate range of any
  task in the workload is not met, that is ... the observed heart rate was
  smaller than the minimum prescribed heart rate for any of the task".
* Figure 5 -- average chip power over the run.
* Figures 7/8 -- per-task normalised heart-rate time series and the
  per-task fraction of time spent outside the goal range.

A warm-up prefix is excluded from the summary statistics: the sliding
heart-rate window needs to fill before QoS judgements are meaningful (the
real platform similarly discards application start-up).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..tasks.task import Task


@dataclass
class TaskSample:
    """Per-task observation for one tick.

    Attributes:
        heart_rate: The task's heart-rate monitor reading at the end of
            the tick (hb/s over its trailing window, after dispatch and
            any withheld heartbeats).
        below_min: ``heart_rate`` misses the QoS floor
            (:meth:`HeartRateRange.below`, the paper's miss test).
        outside_range: ``heart_rate`` lies outside ``[min_hr, max_hr]``
            (not :meth:`HeartRateRange.contains`).
        granted_pus: PUs granted this tick (``Task.last_supply_pus``).
        demand_pus: PUs *consumed* this tick (``Task.last_consumed_pus``):
            the grant, capped at ``work_limit_factor`` times the task's
            demand; zero while frozen or unplaced.  Despite its name it is
            not the demand.  The name stays because checkpoints, replay
            journals and the golden telemetry digests carry it.
    """

    heart_rate: float
    below_min: bool
    outside_range: bool
    granted_pus: float
    demand_pus: float


@dataclass
class TickSample:
    """Chip-wide observation for one tick.

    ``cluster_temperature_c`` is ``None`` unless the run tracks thermals
    (``SimConfig.thermal``); journals and telemetry digests omit the field
    entirely when it is ``None`` so thermal-free runs stay byte-identical
    to runs recorded before thermal tracking existed.
    ``estimated_chip_power_w`` follows the same rule for estimated-power
    runs (``SimConfig.estimation``): it is the chip power the governors
    were served, ``None`` when estimation is off.
    """

    time_s: float
    chip_power_w: float
    cluster_power_w: Dict[str, float]
    cluster_frequency_mhz: Dict[str, float]
    tasks: Dict[str, TaskSample]
    cluster_temperature_c: Optional[Dict[str, float]] = None
    estimated_chip_power_w: Optional[float] = None


class TickColumnBuffer:
    """Preallocated column storage for deferred telemetry rows.

    One buffer holds consecutive ticks sharing a task roster (``names``):
    per-task quantities land in capacity-doubling 2-D numpy arrays via
    slice assignment, the per-tick python payloads (cluster dicts,
    thermal/estimation extras) in plain lists.  ``materialise`` converts
    the whole buffer to :class:`TickSample` objects in one pass --
    ``ndarray.tolist`` yields exactly the python floats/bools a per-tick
    conversion would have produced, so deferral is unobservable.

    Requires numpy (only the columnar engine constructs one).
    """

    __slots__ = (
        "names", "cap", "size", "time_s", "chip_w",
        "hr", "below", "outside", "sup", "con", "aux",
    )

    def __init__(self, names: Tuple[str, ...], capacity: int = 128):
        import numpy as np

        n = len(names)
        self.names = names
        self.cap = capacity
        self.size = 0
        self.time_s = np.empty(capacity, dtype=float)
        self.chip_w = np.empty(capacity, dtype=float)
        self.hr = np.empty((capacity, n), dtype=float)
        self.below = np.empty((capacity, n), dtype=bool)
        self.outside = np.empty((capacity, n), dtype=bool)
        self.sup = np.empty((capacity, n), dtype=float)
        self.con = np.empty((capacity, n), dtype=float)
        #: (cluster_power, cluster_freq, temps, estimated_w) per tick.
        self.aux: List[tuple] = []

    def _grow(self) -> None:
        import numpy as np

        new_cap = self.cap * 2
        for name in ("time_s", "chip_w", "hr", "below", "outside", "sup", "con"):
            old = getattr(self, name)
            shape = (new_cap,) + old.shape[1:]
            fresh = np.empty(shape, dtype=old.dtype)
            fresh[: self.size] = old[: self.size]
            setattr(self, name, fresh)
        self.cap = new_cap

    def append(self, time_s, chip_w, hr, below, outside, sup, con, aux) -> None:
        k = self.size
        if k == self.cap:
            self._grow()
        self.time_s[k] = time_s
        self.chip_w[k] = chip_w
        self.hr[k] = hr
        self.below[k] = below
        self.outside[k] = outside
        self.sup[k] = sup
        self.con[k] = con
        self.aux.append(aux)
        self.size = k + 1

    def materialise(self, out: List[TickSample]) -> None:
        """Append one :class:`TickSample` per stored tick to ``out``."""
        k = self.size
        names = self.names
        times = self.time_s[:k].tolist()
        chips = self.chip_w[:k].tolist()
        hr_l = self.hr[:k].tolist()
        below_l = self.below[:k].tolist()
        outside_l = self.outside[:k].tolist()
        sup_l = self.sup[:k].tolist()
        con_l = self.con[:k].tolist()
        for i in range(k):
            cpw, cfm, temps, est = self.aux[i]
            tasks = {
                name: TaskSample(h, b, o, s, c)
                for name, h, b, o, s, c in zip(
                    names, hr_l[i], below_l[i], outside_l[i], sup_l[i], con_l[i]
                )
            }
            out.append(
                TickSample(
                    time_s=times[i],
                    chip_power_w=chips[i],
                    cluster_power_w=cpw,
                    cluster_frequency_mhz=cfm,
                    tasks=tasks,
                    cluster_temperature_c=temps,
                    estimated_chip_power_w=est,
                )
            )


@dataclass
class MetricsCollector:
    """Accumulates tick samples and derives the paper's summary metrics.

    Recorded tick samples are append-only: ``record`` adds one per tick,
    and nothing modifies a :class:`TickSample` (or the dicts it holds)
    once it is in ``samples``.  Restoring a checkpoint replaces the list
    as a whole.  The checkpoint manager relies on this to encode each
    tick once per run.
    """

    warmup_s: float = 2.0
    samples: List[TickSample] = field(default_factory=list)
    #: Market-invariant violations collected by the engine's non-strict
    #: auditor (``SimConfig.audit``); empty when auditing is off or clean.
    audit_violations: List[str] = field(default_factory=list)

    def record(
        self,
        time_s: float,
        chip_power_w: float,
        cluster_power_w: Dict[str, float],
        cluster_frequency_mhz: Dict[str, float],
        tasks: Sequence[Task],
        cluster_temperature_c: Optional[Dict[str, float]] = None,
        estimated_chip_power_w: Optional[float] = None,
    ) -> None:
        """Record one tick's state for the given active tasks."""
        task_samples: Dict[str, TaskSample] = {}
        for task in tasks:
            hr = task.hrm.heart_rate()
            rng = task.profile.hr_range
            # Inlined HeartRateRange.below/contains (same expressions) --
            # this runs once per task per tick.
            lo = rng.min_hr * (1.0 - rng._REL_EPS)
            hi = rng.max_hr * (1.0 + rng._REL_EPS)
            task_samples[task.name] = TaskSample(
                hr,
                hr < lo,
                not (lo <= hr <= hi),
                task.last_supply_pus,
                task.last_consumed_pus,
            )
        self.samples.append(
            TickSample(
                time_s=time_s,
                chip_power_w=chip_power_w,
                cluster_power_w=dict(cluster_power_w),
                cluster_frequency_mhz=dict(cluster_frequency_mhz),
                tasks=task_samples,
                cluster_temperature_c=(
                    None
                    if cluster_temperature_c is None
                    else dict(cluster_temperature_c)
                ),
                estimated_chip_power_w=estimated_chip_power_w,
            )
        )

    # -- internal -------------------------------------------------------------
    def _measured(self) -> List[TickSample]:
        return [s for s in self.samples if s.time_s >= self.warmup_s]

    # -- paper metrics ----------------------------------------------------------
    def any_task_miss_fraction(self) -> float:
        """Fraction of time any task's heart rate is below its minimum.

        This is the Figures 4/6 metric.
        """
        measured = self._measured()
        if not measured:
            return 0.0
        missed = sum(
            1 for s in measured if any(ts.below_min for ts in s.tasks.values())
        )
        return missed / len(measured)

    def task_below_fraction(self, task_name: str) -> float:
        """Fraction of time one task sits below its minimum heart rate."""
        measured = [s for s in self._measured() if task_name in s.tasks]
        if not measured:
            return 0.0
        return sum(1 for s in measured if s.tasks[task_name].below_min) / len(measured)

    def task_outside_range_fraction(self, task_name: str) -> float:
        """Fraction of time one task is outside [min_hr, max_hr] (Figure 7)."""
        measured = [s for s in self._measured() if task_name in s.tasks]
        if not measured:
            return 0.0
        return sum(1 for s in measured if s.tasks[task_name].outside_range) / len(measured)

    def mean_miss_fraction(self) -> float:
        """Mean over tasks of the per-task below-minimum fraction."""
        names = self.task_names()
        if not names:
            return 0.0
        return sum(self.task_below_fraction(n) for n in names) / len(names)

    def average_power_w(self) -> float:
        """Mean chip power over the measured window (Figure 5)."""
        measured = self._measured()
        if not measured:
            return 0.0
        return sum(s.chip_power_w for s in measured) / len(measured)

    def peak_power_w(self) -> float:
        measured = self._measured()
        return max((s.chip_power_w for s in measured), default=0.0)

    def time_above_power(self, threshold_w: float) -> float:
        """Fraction of measured time with chip power above ``threshold_w``."""
        measured = self._measured()
        if not measured:
            return 0.0
        return sum(1 for s in measured if s.chip_power_w > threshold_w) / len(measured)

    def energy_j(self, dt: float) -> float:
        """Total chip energy over the *measured* window (rectangle rule)."""
        return sum(s.chip_power_w for s in self._measured()) * dt

    def energy_per_beat_mj(self, tasks: Sequence[Task], dt: float) -> float:
        """Millijoules of chip energy per application heartbeat.

        The efficiency metric the paper's "meet demands at minimal
        energy" goal implies: chip energy divided by the total useful
        work (heartbeats) the workload produced.  Returns ``inf`` when no
        beats were produced.
        """
        total_beats = sum(task.total_beats for task in tasks)
        if total_beats <= 0.0:
            return float("inf")
        return 1000.0 * self.energy_j(dt) / total_beats

    def average_cluster_frequency_mhz(self, cluster_id: str) -> float:
        measured = self._measured()
        if not measured:
            return 0.0
        return sum(s.cluster_frequency_mhz.get(cluster_id, 0.0) for s in measured) / len(
            measured
        )

    def audit_violation_count(self) -> int:
        """Number of market-invariant violations the engine's auditor saw."""
        return len(self.audit_violations)

    # -- resilience metrics (fault campaigns) -----------------------------------
    @staticmethod
    def _in_windows(t: float, windows: Sequence[Tuple[float, float]]) -> bool:
        return any(start <= t < end for start, end in windows)

    def _miss_fraction_over(self, samples: Sequence[TickSample]) -> float:
        if not samples:
            return 0.0
        missed = sum(
            1 for s in samples if any(ts.below_min for ts in s.tasks.values())
        )
        return missed / len(samples)

    def miss_fraction_in_windows(
        self, windows: Sequence[Tuple[float, float]]
    ) -> float:
        """Any-task miss fraction over the ticks inside ``windows``.

        Fault windows are explicit measurement intervals, so no warm-up
        exclusion applies here.
        """
        return self._miss_fraction_over(
            [s for s in self.samples if self._in_windows(s.time_s, windows)]
        )

    def miss_fraction_outside_windows(
        self, windows: Sequence[Tuple[float, float]]
    ) -> float:
        """Any-task miss fraction over post-warm-up ticks outside ``windows``."""
        return self._miss_fraction_over(
            [s for s in self._measured() if not self._in_windows(s.time_s, windows)]
        )

    def tdp_violation_seconds(self, tdp_w: float, dt: float) -> float:
        """Seconds (over the whole run) with chip power above ``tdp_w``."""
        return dt * sum(1 for s in self.samples if s.chip_power_w > tdp_w)

    def recovery_time_s(
        self, after_s: float, settle_s: float, dt: float
    ) -> Optional[float]:
        """Time from ``after_s`` until QoS first holds for ``settle_s``.

        Scans forward from ``after_s`` for the first tick after which no
        task misses its heart-rate floor for ``settle_s`` of consecutive
        simulated time; returns that delay, or ``None`` if the run ends
        before QoS settles.  Used for time-to-recover after hot-replug.
        """
        window = max(1, round(settle_s / dt))
        tail = [s for s in self.samples if s.time_s >= after_s]
        clean = 0
        for index, sample in enumerate(tail):
            if any(ts.below_min for ts in sample.tasks.values()):
                clean = 0
            else:
                clean += 1
                if clean >= window:
                    return tail[index - clean + 1].time_s - after_s
        return None

    # -- tail QoS (overload campaigns) ------------------------------------------
    @staticmethod
    def percentile(values: Sequence[float], pct: float) -> float:
        """Nearest-rank percentile of ``values`` (``pct`` in [0, 100]).

        Nearest-rank (not interpolated) so the result is always an
        observed value and stays bit-stable across platforms -- these
        numbers land in golden campaign reports.  Returns 0.0 for an
        empty sequence.
        """
        if not values:
            return 0.0
        if not 0.0 <= pct <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        ordered = sorted(values)
        if pct == 0.0:
            return ordered[0]
        rank = math.ceil(pct / 100.0 * len(ordered))
        return ordered[rank - 1]

    def task_below_percentiles(
        self,
        task_names: Optional[Sequence[str]] = None,
        percentiles: Sequence[float] = (50.0, 95.0, 99.0),
    ) -> Dict[str, float]:
        """Tail of the per-task below-minimum-heart-rate distribution.

        Computes each task's below-minimum fraction (the Figure 7 per-task
        metric) over ``task_names`` (default: every task ever observed)
        and reports the requested percentiles of that distribution, keyed
        ``"p50"``/``"p95"``/``"p99"``.  The overload campaigns read the
        tail over *admitted* stream tasks: means hide exactly the tasks a
        flash crowd starves.
        """
        names = list(task_names) if task_names is not None else self.task_names()
        fractions = [self.task_below_fraction(name) for name in names]
        return {
            f"p{pct:g}": self.percentile(fractions, pct) for pct in percentiles
        }

    def violation_fraction_percentiles(
        self,
        task_names: Optional[Sequence[str]] = None,
        percentiles: Sequence[float] = (50.0, 95.0, 99.0),
    ) -> Dict[str, float]:
        """Tail over *time* of the instantaneous QoS-violation rate.

        For every measured tick, the fraction of the named tasks alive at
        that tick whose heart rate sits below its minimum; the requested
        percentiles of that per-tick series are returned keyed
        ``"p50"``/``"p95"``/``"p99"``.  This is the overload headline
        metric: "at the p99-worst moment, how much of the admitted
        population was the system failing?" -- bounded and population-
        wide, where the per-task tail
        (:meth:`task_below_percentiles`) degenerates to the single
        unluckiest task.  Ticks where none of the named tasks are alive
        are skipped.
        """
        names = None if task_names is None else set(task_names)
        fractions: List[float] = []
        for sample in self._measured():
            relevant = [
                ts
                for name, ts in sample.tasks.items()
                if names is None or name in names
            ]
            if not relevant:
                continue
            fractions.append(
                sum(1 for ts in relevant if ts.below_min) / len(relevant)
            )
        return {
            f"p{pct:g}": self.percentile(fractions, pct) for pct in percentiles
        }

    # -- series (Figures 7/8) ---------------------------------------------------
    def task_names(self) -> List[str]:
        names: List[str] = []
        for sample in self.samples:
            for name in sample.tasks:
                if name not in names:
                    names.append(name)
        return names

    def heart_rate_series(
        self, task_name: str, normalize_by: Optional[float] = None
    ) -> Tuple[List[float], List[float]]:
        """(times, heart rates) for one task; optionally normalised."""
        times: List[float] = []
        rates: List[float] = []
        scale = 1.0 / normalize_by if normalize_by else 1.0
        for sample in self.samples:
            if task_name in sample.tasks:
                times.append(sample.time_s)
                rates.append(sample.tasks[task_name].heart_rate * scale)
        return times, rates

    def power_series(self) -> Tuple[List[float], List[float]]:
        return (
            [s.time_s for s in self.samples],
            [s.chip_power_w for s in self.samples],
        )

    def frequency_series(self, cluster_id: str) -> Tuple[List[float], List[float]]:
        return (
            [s.time_s for s in self.samples],
            [s.cluster_frequency_mhz.get(cluster_id, 0.0) for s in self.samples],
        )

    def temperature_series(self, cluster_id: str) -> Tuple[List[float], List[float]]:
        """(times, temperatures) for one cluster; empty without thermals."""
        times: List[float] = []
        temps: List[float] = []
        for sample in self.samples:
            if sample.cluster_temperature_c is None:
                continue
            if cluster_id in sample.cluster_temperature_c:
                times.append(sample.time_s)
                temps.append(sample.cluster_temperature_c[cluster_id])
        return times, temps

    def peak_temperature_c(self) -> Optional[float]:
        """Hottest recorded cluster temperature, or ``None`` without thermals."""
        peak: Optional[float] = None
        for sample in self.samples:
            if sample.cluster_temperature_c is None:
                continue
            hottest = max(sample.cluster_temperature_c.values())
            if peak is None or hottest > peak:
                peak = hottest
        return peak

    # -- estimated-power metrics (model-error campaigns) -------------------------
    def estimation_error_series(self) -> Tuple[List[float], List[float]]:
        """(times, |served − metered| watts); empty without estimation."""
        times: List[float] = []
        errors: List[float] = []
        for sample in self.samples:
            if sample.estimated_chip_power_w is None:
                continue
            times.append(sample.time_s)
            errors.append(abs(sample.estimated_chip_power_w - sample.chip_power_w))
        return times, errors

    def estimation_error_percentiles(
        self, percentiles: Sequence[float] = (50.0, 95.0, 99.0)
    ) -> Dict[str, float]:
        """Nearest-rank tail of the absolute served-vs-metered power error.

        The model-error campaign headline: how far off was the power
        signal the governors actually acted on?  Keys are ``"p50"`` etc.;
        all zeros without estimation samples.
        """
        _, errors = self.estimation_error_series()
        return {
            f"p{pct:g}": self.percentile(errors, pct) for pct in percentiles
        }
