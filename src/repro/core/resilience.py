"""Governor-side resilience: surviving faulty sensing and actuation.

The market's stability arguments assume its inputs (power readings) and
outputs (DVFS requests, migrations) work.  On real hardware they fail;
this module adds the machinery a production power manager wraps around a
policy:

* :class:`StaleSensorDetector` -- validates power samples (dropout,
  stuck-at-last-value, spikes, NaN) and serves a last-good-value fallback
  so one broken hwmon read cannot poison a bid round.
* :class:`BackoffRetry` / :class:`DVFSSupervisor` -- read-back
  verification of issued DVFS requests with exponential-backoff re-issue,
  because a dropped cpufreq write is silent.
* :class:`MarketWatchdog` -- detects frozen bid rounds (the market raises
  or stops producing results) and diverging power, and degrades the
  governor to a safe static policy until health returns.

The PPM governor wires these in behind ``PPMConfig.resilience``; the
fault model that exercises them lives in :mod:`repro.faults`.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import asdict, dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..hw.sensors import SensorSample
from .ladder import Ladder


@dataclass
class ResilienceConfig:
    """Tuning of the resilience layer (defaults are deliberately benign:
    in a fault-free run none of the mechanisms changes behaviour).

    Attributes:
        stale_reads: Bit-identical chip-power readings tolerated before
            the sensor is declared stuck and the fallback serves values.
        spike_factor: A reading above this multiple of the recent median
            (or below zero) is rejected as a glitch.
        retry_initial_rounds: First re-issue backoff for unacknowledged
            DVFS requests, in bid rounds; doubles per failure.
        retry_max_rounds: Backoff ceiling.
        watchdog_failures: Consecutive failed/raising bid rounds before
            the watchdog trips into safe mode.
        divergence_factor: Chip power above ``factor * wtdp`` counts as a
            diverging round (only with a power budget configured).
        divergence_rounds: Consecutive diverging rounds before tripping.
        recovery_rounds: Consecutive healthy safe-mode rounds required
            before the market is resumed.
        safe_level_index: V-F level the safe static policy pins clusters
            to (0 = lowest, the powersave floor).
    """

    stale_reads: int = 8
    spike_factor: float = 3.0
    retry_initial_rounds: int = 1
    retry_max_rounds: int = 32
    watchdog_failures: int = 4
    divergence_factor: float = 1.75
    divergence_rounds: int = 64
    recovery_rounds: int = 16
    safe_level_index: int = 0

    def __post_init__(self) -> None:
        if self.stale_reads < 2:
            raise ValueError("stale_reads must be at least 2")
        if self.spike_factor <= 1.0:
            raise ValueError("spike_factor must exceed 1")
        if self.retry_initial_rounds < 1 or self.retry_max_rounds < self.retry_initial_rounds:
            raise ValueError("need 1 <= retry_initial_rounds <= retry_max_rounds")
        if min(self.watchdog_failures, self.divergence_rounds, self.recovery_rounds) < 1:
            raise ValueError("watchdog windows must be positive")
        if self.safe_level_index < 0:
            raise ValueError("safe_level_index must be non-negative")


class StaleSensorDetector:
    """Validates power samples and serves a last-good-value fallback.

    ``observe(sample)`` returns a trusted sample: the input when it looks
    healthy, otherwise the last good one (before any good sample: a
    zero-power stand-in, the conservative choice -- a governor that
    under-estimates power can only over-deliver QoS, never melt the
    chip's accounting).  Detection is three-pronged: *dropout* (``None``
    input -- the engine already substituted, or the caller read nothing),
    *stuck* (bit-identical chip power for ``stale_reads`` consecutive
    observations), and *spikes* (non-finite, negative, or above
    ``spike_factor`` times the rolling median).
    """

    _HISTORY = 32

    def __init__(self, stale_reads: int = 8, spike_factor: float = 3.0):
        self._stale_reads = stale_reads
        self._spike_factor = spike_factor
        self._history: List[float] = []
        self._last_good: Optional[SensorSample] = None
        self._last_raw: Optional[float] = None
        self._repeats = 0
        self.dropouts = 0
        self.stuck = 0
        self.spikes = 0

    # -- classification ----------------------------------------------------------
    def _is_spike(self, watts: float) -> bool:
        if not math.isfinite(watts) or watts < 0.0:
            return True
        if len(self._history) < 4:
            return False
        ordered = sorted(self._history)
        median = ordered[len(ordered) // 2]
        return watts > self._spike_factor * max(median, 0.25)

    def _is_stuck(self, watts: float) -> bool:
        if self._last_raw is not None and watts == self._last_raw:
            self._repeats += 1
        else:
            self._repeats = 0
        self._last_raw = watts
        return self._repeats >= self._stale_reads

    # -- entry point -------------------------------------------------------------
    def observe(self, sample: Optional[SensorSample]) -> SensorSample:
        """Classify ``sample`` and return a trusted one."""
        if sample is None:
            self.dropouts += 1
            return self.fallback()
        watts = sample.chip_power_w
        stuck = self._is_stuck(watts)
        if self._is_spike(watts):
            self.spikes += 1
            return self.fallback()
        if stuck:
            # A stuck register repeats the last *good* value too, so the
            # fallback is behaviour-preserving when the repetition is a
            # genuinely constant power draw.
            self.stuck += 1
            return self.fallback()
        self._history.append(watts)
        if len(self._history) > self._HISTORY:
            self._history.pop(0)
        self._last_good = sample
        return sample

    def fallback(self) -> SensorSample:
        if self._last_good is not None:
            return self._last_good
        return SensorSample(
            chip_power_w=0.0,
            cluster_power_w={},
            cluster_frequency_mhz={},
            cluster_voltage_v={},
        )

    @property
    def suspect_reads(self) -> int:
        return self.dropouts + self.stuck + self.spikes

    # -- snapshot/restore (checkpointing) ----------------------------------------
    def snapshot_state(self) -> Dict[str, object]:
        return {
            "history": list(self._history),
            "last_good": None if self._last_good is None else asdict(self._last_good),
            "last_raw": self._last_raw,
            "repeats": self._repeats,
            "dropouts": self.dropouts,
            "stuck": self.stuck,
            "spikes": self.spikes,
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        self._history = list(state["history"])
        good = state["last_good"]
        self._last_good = None if good is None else SensorSample(
            chip_power_w=good["chip_power_w"],
            cluster_power_w=dict(good["cluster_power_w"]),
            cluster_frequency_mhz=dict(good["cluster_frequency_mhz"]),
            cluster_voltage_v=dict(good["cluster_voltage_v"]),
        )
        self._last_raw = state["last_raw"]
        self._repeats = state["repeats"]
        self.dropouts = state["dropouts"]
        self.stuck = state["stuck"]
        self.spikes = state["spikes"]


class BackoffRetry:
    """Per-key exponential backoff in units of rounds."""

    def __init__(self, initial_rounds: int = 1, max_rounds: int = 32):
        self._initial = initial_rounds
        self._max = max_rounds
        #: key -> (next round at which a retry is allowed, current backoff)
        self._state: Dict[object, tuple] = {}
        self.retries = 0

    def should_attempt(self, key: object, round_no: int) -> bool:
        state = self._state.get(key)
        return state is None or round_no >= state[0]

    def record_failure(self, key: object, round_no: int) -> None:
        _, backoff = self._state.get(key, (0, self._initial))
        self._state[key] = (round_no + backoff, min(2 * backoff, self._max))
        self.retries += 1

    def record_success(self, key: object) -> None:
        self._state.pop(key, None)

    def pending(self) -> int:
        return len(self._state)

    # -- snapshot/restore (checkpointing) ----------------------------------------
    def snapshot_state(self) -> Dict[str, object]:
        return {
            "state": [
                [key, next_round, backoff]
                for key, (next_round, backoff) in self._state.items()
            ],
            "retries": self.retries,
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        self._state = {
            key: (next_round, backoff)
            for key, next_round, backoff in state["state"]
        }
        self.retries = state["retries"]


class DVFSSupervisor:
    """Verifies DVFS requests took effect; re-issues with backoff.

    The governor routes level requests through :meth:`request`; once per
    bid round :meth:`verify` reads the regulator's target back (the
    cpufreq sysfs read-back) and re-issues any request that was silently
    dropped, backing off exponentially while the actuation path stays
    broken.
    """

    def __init__(self, retry: Optional[BackoffRetry] = None):
        self._retry = retry or BackoffRetry()
        self._desired: Dict[str, int] = {}
        self.reissues = 0

    def request(self, sim, cluster, level_index: int) -> bool:
        clamped = cluster.vf_table.clamp_index(level_index)
        self._desired[cluster.cluster_id] = clamped
        return sim.request_level(cluster, clamped)

    def forget(self, cluster_id: str) -> None:
        self._desired.pop(cluster_id, None)
        self._retry.record_success(cluster_id)

    @staticmethod
    def _acknowledged_level(sim, cluster, level: int) -> int:
        """The level the engine can actually grant for a desired ``level``.

        A thermal V-F ceiling clamps requests below the governor's desire;
        read-back verification must compare against the clamped level or
        it would re-issue a doomed request every round for as long as the
        throttle holds.
        """
        ceiling_of = getattr(sim, "level_ceiling_of", None)
        ceiling = ceiling_of(cluster.cluster_id) if ceiling_of is not None else None
        if ceiling is not None and level > ceiling:
            return ceiling
        return level

    def verify(self, sim, round_no: int) -> int:
        """Re-issue unacknowledged requests; returns how many were sent."""
        sent = 0
        for cluster_id, level in list(self._desired.items()):
            cluster = sim.chip.cluster(cluster_id)
            acknowledged = self._acknowledged_level(sim, cluster, level)
            if cluster.regulator.target_index == acknowledged:
                self._retry.record_success(cluster_id)
                continue
            if cluster_id in sim.offline_clusters:
                continue  # nothing to actuate until the cluster returns
            if self._retry.should_attempt(cluster_id, round_no):
                sim.request_level(cluster, level)
                self._retry.record_failure(cluster_id, round_no)
                if cluster.regulator.target_index == acknowledged:
                    self._retry.record_success(cluster_id)
                self.reissues += 1
                sent += 1
        return sent

    # -- snapshot/restore (checkpointing) ----------------------------------------
    def snapshot_state(self) -> Dict[str, object]:
        return {
            "desired": dict(self._desired),
            "reissues": self.reissues,
            "retry": self._retry.snapshot_state(),
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        self._desired = dict(state["desired"])
        self.reissues = state["reissues"]
        self._retry.restore_state(state["retry"])


class WatchdogState(Enum):
    HEALTHY = "healthy"
    SAFE_MODE = "safe-mode"


class MarketWatchdog:
    """Detects frozen or diverging bid rounds; drives graceful degradation.

    *Frozen*: the market raised or otherwise failed to complete
    ``watchdog_failures`` consecutive rounds.  *Diverging*: round results
    carry non-finite prices/allocations, or chip power stays above
    ``divergence_factor * wtdp`` for ``divergence_rounds`` rounds despite
    the market's own emergency machinery.  Either trips the watchdog into
    safe mode; ``recovery_rounds`` consecutive healthy safe-mode rounds
    arm the market again.  The two states are a :class:`Ladder`: a trip
    escalates it and a healthy safe-mode round relaxes it.
    """

    def __init__(self, config: Optional[ResilienceConfig] = None):
        self.config = config or ResilienceConfig()
        self._ladder = Ladder(WatchdogState, recovery=self.config.recovery_rounds)
        self.trips = 0
        self.trip_reasons: List[str] = []
        self._failures = 0
        self._diverging = 0

    @property
    def state(self) -> WatchdogState:
        return self._ladder.rung

    # -- healthy-state feeds -----------------------------------------------------
    def record_failure(self, reason: str = "round failed") -> bool:
        """Feed one failed bid round; returns True if this trips safe mode."""
        self._failures += 1
        if (
            self.state is WatchdogState.HEALTHY
            and self._failures >= self.config.watchdog_failures
        ):
            self._trip(f"{reason} x{self._failures}")
            return True
        return False

    def record_round(
        self,
        chip_power_w: float,
        wtdp: Optional[float],
        prices: Optional[Dict[str, float]] = None,
        task_ids: Sequence[str] = (),
        supplies: Optional[np.ndarray | array] = None,
    ) -> bool:
        """Feed one completed round; returns True if it trips safe mode.

        ``supplies`` is the round's supply column over the rows
        ``task_ids`` (see ``RoundResult``); a non-finite entry trips with
        the first such row.  An array is checked in one pass, a scalar
        round's short ``array('d')`` by a walk.
        """
        self._failures = 0
        if self.state is not WatchdogState.HEALTHY:
            return False
        for key, value in (prices or {}).items():
            if not math.isfinite(value):
                self._trip(f"non-finite price for {key}: {value}")
                return True
        if supplies is not None and not (
            np.isfinite(supplies).all()
            if isinstance(supplies, np.ndarray)
            else all(map(math.isfinite, supplies))
        ):
            for key, value in zip(task_ids, supplies.tolist()):
                if not math.isfinite(value):
                    self._trip(f"non-finite allocation for {key}: {value}")
                    return True
        if wtdp is not None and chip_power_w > self.config.divergence_factor * wtdp:
            self._diverging += 1
            if self._diverging >= self.config.divergence_rounds:
                self._trip(
                    f"power {chip_power_w:.2f} W diverging above "
                    f"{self.config.divergence_factor:.2f} x TDP for "
                    f"{self._diverging} rounds"
                )
                return True
        else:
            self._diverging = 0
        return False

    # -- safe-mode feeds ---------------------------------------------------------
    def record_safe_round(self, healthy: bool) -> bool:
        """Feed one safe-mode round; returns True when recovery completes."""
        if self.state is not WatchdogState.SAFE_MODE:
            return False
        if not healthy:
            self._ladder.hold()
        elif self._ladder.relax():
            self._reset_counters()
            return True
        return False

    # -- internals ---------------------------------------------------------------
    def _trip(self, reason: str) -> None:
        self._ladder.escalate()
        self.trips += 1
        self.trip_reasons.append(reason)
        self._reset_counters()

    def _reset_counters(self) -> None:
        self._failures = 0
        self._diverging = 0

    @property
    def in_safe_mode(self) -> bool:
        return self._ladder.rung is WatchdogState.SAFE_MODE

    # -- snapshot/restore (checkpointing) ----------------------------------------
    def snapshot_state(self) -> Dict[str, object]:
        return {
            "state": self.state.value,
            "trips": self.trips,
            "trip_reasons": list(self.trip_reasons),
            "failures": self._failures,
            "diverging": self._diverging,
            "healthy": self._ladder.streak,
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        self._ladder.restore(WatchdogState(state["state"]), state["healthy"])
        self.trips = state["trips"]
        self.trip_reasons = list(state["trip_reasons"])
        self._failures = state["failures"]
        self._diverging = state["diverging"]


class ThermalState(Enum):
    """Per-cluster rung on the thermal protection ladder, coolest first."""

    NORMAL = "normal"
    WARN = "warn"
    THROTTLE = "throttle"
    SHED = "shed"
    TRIP = "trip"


class ThermalSupervisor:
    """Graduated thermal degradation with hysteresis.

    Driven by the engine every tick with the *sensed* thermal sample (so a
    stuck thermal sensor blinds it, exactly like hardware); it evaluates
    each cluster at most once per ``check_period_s`` and moves that
    cluster one rung up the ladder when its temperature reaches the next
    rung's entry threshold, or one rung down when it has cooled below the
    current rung's entry threshold minus ``hysteresis_k``:

    * **warn** -- asks the governor (when it exposes
      ``set_thermal_surcharge``) to inflate observed power, so a price-
      theory market raises prices and bids shrink before any forcible
      action.
    * **throttle** -- ratchets the cluster's V-F ceiling
      (:meth:`~repro.sim.engine.Simulation.set_level_ceiling`) down one
      level per hot evaluation and back up one per cool evaluation.
    * **shed** -- migrates the cluster's tasks to the coolest other
      online cluster (big -> LITTLE under a typical hot big cluster).
    * **trip** -- hot-unplugs the cluster through the engine's existing
      safe-mode/hotplug machinery; it is replugged on recovery.

    The supervisor only ever replugs clusters *it* tripped, so an
    injected hotplug fault is never masked by thermal recovery.  Each
    cluster gets its own :class:`Ladder` on its first evaluation.
    """

    def __init__(self, config, tcrit_c: float = 95.0):
        self.config = config
        self.tcrit_c = tcrit_c
        self._ladders: Dict[str, Ladder] = {}
        self._next_check_s = 0.0
        self._tripped: set = set()
        self.warnings = 0
        self.throttles = 0
        self.sheds = 0
        self.tasks_shed = 0
        self.trips = 0
        self.recoveries = 0
        #: ``(time_s, cluster_id, from_state, to_state)`` per transition.
        self.transitions: List[tuple] = []

    # -- queries -----------------------------------------------------------------
    def state_of(self, cluster_id: str) -> ThermalState:
        ladder = self._ladders.get(cluster_id)
        return ThermalState.NORMAL if ladder is None else ladder.rung

    @property
    def unrecovered_trips(self) -> int:
        """Clusters currently offline because this supervisor tripped them."""
        return len(self._tripped)

    @property
    def hot(self) -> bool:
        """Any cluster at WARN or above."""
        return any(
            ladder.at_least(ThermalState.WARN) for ladder in self._ladders.values()
        )

    def stats(self) -> Dict[str, int]:
        return {
            "warnings": self.warnings,
            "throttles": self.throttles,
            "sheds": self.sheds,
            "tasks_shed": self.tasks_shed,
            "trips": self.trips,
            "recoveries": self.recoveries,
            "unrecovered_trips": self.unrecovered_trips,
            "transitions": len(self.transitions),
        }

    # -- engine hook -------------------------------------------------------------
    def on_tick(self, sim, sample) -> None:
        """Evaluate the ladder against one sensed thermal sample."""
        if sim.now < self._next_check_s:
            return
        self._next_check_s = sim.now + self.config.check_period_s
        # Estimated-power guard band: while the power signal is suspect
        # the heat forecast is too, so judge every cluster a few degrees
        # hotter than sensed and escalate earlier.  Zero whenever no
        # estimation pipeline is attached or it is healthy.
        guard = 0.0
        estimation = getattr(sim, "estimation", None)
        if estimation is not None and estimation.degraded:
            guard = getattr(self.config, "estimation_guard_k", 0.0)
        for cluster in sim.chip.clusters:
            temp = sample.cluster_temperature_c.get(cluster.cluster_id)
            if temp is None:
                continue
            self._evaluate(sim, cluster, temp + guard, sample)
        self._apply_surcharge(sim)

    # -- ladder mechanics --------------------------------------------------------
    def _new_ladder(self) -> Ladder:
        config = self.config
        entry = {
            ThermalState.WARN: config.warn_c,
            ThermalState.THROTTLE: config.throttle_c,
            ThermalState.SHED: config.shed_c,
            ThermalState.TRIP: config.trip_c,
        }
        return Ladder(ThermalState, entry, config.hysteresis_k)

    def _evaluate(self, sim, cluster, temp: float, sample) -> None:
        ladder = self._ladders.get(cluster.cluster_id)
        if ladder is None:
            ladder = self._ladders[cluster.cluster_id] = self._new_ladder()
        move = ladder.observe(temp)
        if move is not None:
            self._transition(sim, cluster, ladder, *move, sample)
        self._adjust_ceiling(sim, cluster, temp)

    def _transition(
        self, sim, cluster, ladder: Ladder, old: ThermalState, new: ThermalState, sample
    ) -> None:
        self.transitions.append(
            (sim.now, cluster.cluster_id, old.value, new.value)
        )
        if ladder.rank(new) > ladder.rank(old):
            if new is ThermalState.WARN:
                self.warnings += 1
            elif new is ThermalState.THROTTLE:
                self.throttles += 1
            elif new is ThermalState.SHED:
                self.sheds += 1
                self._shed(sim, cluster, sample)
            elif new is ThermalState.TRIP:
                self.trips += 1
                sim.hotplug_out(cluster)
                self._tripped.add(cluster.cluster_id)
        elif old is ThermalState.TRIP and cluster.cluster_id in self._tripped:
            sim.hotplug_in(cluster)
            self._tripped.discard(cluster.cluster_id)
            self.recoveries += 1

    def _adjust_ceiling(self, sim, cluster, temp: float) -> None:
        """Ratchet the V-F ceiling while at or above the throttle rung.

        One level per evaluation in either direction: down while the
        cluster is still at or above ``throttle_c``, back up once it has
        dropped below the throttle rung, clearing the ceiling entirely
        when it returns to the table's top level.
        """
        ceiling = sim.level_ceiling_of(cluster.cluster_id)
        max_index = cluster.vf_table.max_index
        if self._ladders[cluster.cluster_id].at_least(ThermalState.THROTTLE):
            if temp >= self.config.throttle_c:
                current = max_index if ceiling is None else ceiling
                sim.set_level_ceiling(cluster, max(0, current - 1))
        elif ceiling is not None:
            if ceiling + 1 >= max_index:
                sim.clear_level_ceiling(cluster)
            else:
                sim.set_level_ceiling(cluster, ceiling + 1)

    def _shed(self, sim, cluster, sample) -> None:
        """Migrate the hot cluster's tasks to the coolest other cluster."""
        others = [
            c for c in sim.online_clusters() if c.cluster_id != cluster.cluster_id
        ]
        if not others:
            return  # nowhere to go; throttle/trip remain
        temps = sample.cluster_temperature_c
        destination = min(
            others, key=lambda c: (temps.get(c.cluster_id, float("inf")), c.cluster_id)
        )
        for task in sorted(
            sim.placement.tasks_on_cluster(cluster), key=lambda t: t.name
        ):
            core = sim.placement.least_loaded_core(destination.cores, sim.now)
            record = sim.migrate(task, core)
            if not record.failed:
                self.tasks_shed += 1

    def _apply_surcharge(self, sim) -> None:
        hook = getattr(sim.governor, "set_thermal_surcharge", None)
        if hook is None:
            return
        hook(self.config.warn_surcharge if self.hot else 0.0)

    # -- snapshot/restore (checkpointing) ----------------------------------------
    def snapshot_state(self) -> Dict[str, object]:
        return {
            "states": {cid: ladder.rung.value for cid, ladder in self._ladders.items()},
            "next_check_s": self._next_check_s,
            "tripped": sorted(self._tripped),
            "warnings": self.warnings,
            "throttles": self.throttles,
            "sheds": self.sheds,
            "tasks_shed": self.tasks_shed,
            "trips": self.trips,
            "recoveries": self.recoveries,
            "transitions": [list(t) for t in self.transitions],
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        self._ladders = {}
        for cid, value in state["states"].items():
            self._ladders[cid] = self._new_ladder()
            self._ladders[cid].restore(ThermalState(value))
        self._next_check_s = state["next_check_s"]
        self._tripped = set(state["tripped"])
        self.warnings = state["warnings"]
        self.throttles = state["throttles"]
        self.sheds = state["sheds"]
        self.tasks_shed = state["tasks_shed"]
        self.trips = state["trips"]
        self.recoveries = state["recoveries"]
        self.transitions = [tuple(t) for t in state["transitions"]]


class EstimatorState(Enum):
    """Chip-global rung on the estimator degradation ladder, healthy first."""

    HEALTHY = "healthy"
    FROZEN = "frozen"
    MARGIN = "margin"
    FALLBACK = "fallback"

#: Health-score (worst-cluster innovation EWMA / gate) entry thresholds.
_ESTIMATOR_ENTRY = {
    EstimatorState.FROZEN: 1.0,
    EstimatorState.MARGIN: 2.0,
    EstimatorState.FALLBACK: 4.0,
}


class EstimatorSupervisor:
    """Sanity-gates power estimates and degrades the estimator gracefully.

    Two layers of protection, mirroring how a production power manager
    treats a counter-based model it cannot fully trust:

    **Per-tick sanity gates** (always on, any rung below fallback):
    non-finite estimates are replaced by the metered reading; estimates
    are clamped into ``[0, max_cluster_power_w]`` (the physical envelope
    of the cluster at its top V-F level); and an estimate farther than
    ``innovation_clamp_w`` from the metered reading is rejected for that
    tick.  Every intervention is counted.

    **Degradation ladder** (evaluated once per ``check_period_s``): the
    health score is the worst cluster's innovation EWMA divided by
    ``innovation_gate_w``.  Escalation moves one rung per evaluation when
    the score reaches the next rung's entry threshold:

    * **frozen** -- coefficient updates stop, holding the last model that
      tracked reality; the innovation EWMA keeps scoring the held model
      against fresh metered power so recovery is observable.
    * **margin** -- served estimates are inflated by ``margin_factor``,
      pushing every governor conservative while the model is suspect.
    * **fallback** -- the metered (analytic-model) sample is served
      outright and the estimator *retrains in the shadow* (its output is
      out of the loop, so re-learning is free), letting a post-fault
      model re-converge and climb back down the ladder.

    Descent requires the score below the *current* rung's entry threshold
    minus ``hysteresis`` for ``recovery_checks`` consecutive evaluations,
    then moves one rung down, so recovery never flaps and never skips a
    rung either.  Every transition is recorded as
    ``(time_s, from_state, to_state, score)``.
    """

    def __init__(self, config, max_cluster_power_w: Dict[str, float]):
        self.config = config
        self._max_power = dict(max_cluster_power_w)
        self._ladder = Ladder(
            EstimatorState, _ESTIMATOR_ENTRY, config.hysteresis, config.recovery_checks
        )
        self._next_check_s = 0.0
        self.nonfinite_reads = 0
        self.clamped_reads = 0
        self.rejected_reads = 0
        self.freezes = 0
        self.margins = 0
        self.fallbacks = 0
        self.recoveries = 0
        #: ``(time_s, from_state, to_state, score)`` per transition.
        self.transitions: List[tuple] = []

    # -- queries -----------------------------------------------------------------
    @property
    def state(self) -> EstimatorState:
        return self._ladder.rung

    @property
    def degraded(self) -> bool:
        """Margin or worse: admission should price in the uncertainty."""
        return self._ladder.at_least(EstimatorState.MARGIN)

    def stats(self) -> Dict[str, object]:
        return {
            "estimator_state": self.state.value,
            "nonfinite_reads": self.nonfinite_reads,
            "clamped_reads": self.clamped_reads,
            "rejected_reads": self.rejected_reads,
            "freezes": self.freezes,
            "margins": self.margins,
            "fallbacks": self.fallbacks,
            "estimator_recoveries": self.recoveries,
            "estimator_transitions": len(self.transitions),
        }

    # -- pipeline hook -----------------------------------------------------------
    def on_tick(self, sim, estimator, metered: SensorSample) -> SensorSample:
        """Gate this tick's estimates; returns the sample to serve."""
        if sim.now >= self._next_check_s:
            self._next_check_s = sim.now + self.config.check_period_s
            self._evaluate(sim, estimator)
        if self.state is EstimatorState.FALLBACK:
            return metered
        margin = (
            self.config.margin_factor
            if self.state is EstimatorState.MARGIN
            else 1.0
        )
        cluster_power: Dict[str, float] = {}
        for cluster_id, estimate in estimator.estimates().items():
            metered_w = metered.cluster_power_w.get(cluster_id, 0.0)
            watts = estimate.power_w
            if not math.isfinite(watts):
                self.nonfinite_reads += 1
                watts = metered_w
            else:
                ceiling = self._max_power.get(cluster_id, float("inf"))
                if watts < 0.0 or watts > ceiling:
                    self.clamped_reads += 1
                    watts = min(max(watts, 0.0), ceiling)
                if abs(watts - metered_w) > self.config.innovation_clamp_w:
                    self.rejected_reads += 1
                    watts = metered_w
            cluster_power[cluster_id] = watts * margin
        return SensorSample(
            chip_power_w=sum(cluster_power.values()),
            cluster_power_w=cluster_power,
            cluster_frequency_mhz=dict(metered.cluster_frequency_mhz),
            cluster_voltage_v=dict(metered.cluster_voltage_v),
        )

    # -- ladder mechanics --------------------------------------------------------
    def _evaluate(self, sim, estimator) -> None:
        score = estimator.health_score()
        move = self._ladder.observe(score)
        if move is not None:
            self._transition(sim, estimator, *move, score)

    def _transition(
        self, sim, estimator, old: EstimatorState, new: EstimatorState, score: float
    ) -> None:
        self.transitions.append((sim.now, old.value, new.value, score))
        if self._ladder.rank(new) > self._ladder.rank(old):
            if new is EstimatorState.FROZEN:
                self.freezes += 1
            elif new is EstimatorState.MARGIN:
                self.margins += 1
            elif new is EstimatorState.FALLBACK:
                self.fallbacks += 1
        else:
            self.recoveries += 1
        # Hold the model while its output is still being served (frozen /
        # margin); let it learn when it is out of the loop (healthy) or
        # shadow-retraining behind the metered fallback.
        if new in (EstimatorState.FROZEN, EstimatorState.MARGIN):
            estimator.freeze()
        else:
            estimator.unfreeze()

    # -- snapshot/restore (checkpointing) ----------------------------------------
    def snapshot_state(self) -> Dict[str, object]:
        return {
            "state": self.state.value,
            "next_check_s": self._next_check_s,
            "healthy_checks": self._ladder.streak,
            "nonfinite_reads": self.nonfinite_reads,
            "clamped_reads": self.clamped_reads,
            "rejected_reads": self.rejected_reads,
            "freezes": self.freezes,
            "margins": self.margins,
            "fallbacks": self.fallbacks,
            "recoveries": self.recoveries,
            "transitions": [list(t) for t in self.transitions],
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        self._ladder.restore(EstimatorState(state["state"]), state["healthy_checks"])
        self._next_check_s = state["next_check_s"]
        self.nonfinite_reads = state["nonfinite_reads"]
        self.clamped_reads = state["clamped_reads"]
        self.rejected_reads = state["rejected_reads"]
        self.freezes = state["freezes"]
        self.margins = state["margins"]
        self.fallbacks = state["fallbacks"]
        self.recoveries = state["recoveries"]
        self.transitions = [tuple(t) for t in state["transitions"]]
