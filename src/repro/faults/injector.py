"""The fault injector: plays a schedule into the engine's narrow seams.

Attaching a :class:`FaultInjector` to a simulation puts faulty front ends
on its sensors and counter emitter, and registers the injector as
``sim.fault_injector``, which the engine consults at its seams: the top
of every tick (delayed DVFS, hotplug, thermal, drift and heartbeat-loss
windows), every DVFS write and every migration.  Those are exactly the
interfaces governors already go through, so every governor runs under
faults *without code changes*, mirroring how the real failures live below
the policy layer (hwmon, cpufreq, sched_setaffinity, CPU hotplug, HRM).

The injector is deliberately mechanical: all stochastic choice lives in
the schedule (see :mod:`repro.faults.events`), so a given schedule replays
identically against any governor.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..hw.sensors import (
    PowerSensor,
    SensorReadError,
    SensorSample,
    ThermalSample,
    ThermalSensor,
)
from ..hw.counters import COUNTER_NAMES, CounterSample
from ..hw.topology import Cluster
from ..tasks.task import Task
from .events import COUNTER_FAULTS, THERMAL_FAULTS, FaultKind, FaultSchedule


class FaultySensor:
    """A :class:`PowerSensor` front end that applies scheduled sensor faults.

    Drop-in for the engine's sensor attribute: ``sample()`` raises
    :class:`SensorReadError` during a dropout window, repeats the last
    reading during a stuck window, and multiplies power readings by the
    event magnitude during a spike window.  Cluster-targeted events
    corrupt only that cluster's reading (the chip total is re-summed).
    """

    def __init__(self, inner: PowerSensor, schedule: FaultSchedule, clock):
        self._inner = inner
        self._schedule = schedule
        self._clock = clock
        #: Cluster watts frozen at entry of the active targeted-stuck window.
        self._stuck_hold: Optional[Tuple[object, float]] = None
        self.dropouts = 0
        self.stuck_reads = 0
        self.spikes = 0

    @property
    def last_sample(self) -> Optional[SensorSample]:
        return self._inner.last_sample

    def sample(self) -> SensorSample:
        now = self._clock()
        if self._schedule.active(now, FaultKind.SENSOR_DROPOUT) is not None:
            self.dropouts += 1
            raise SensorReadError(f"power sensor dropout at t={now:.3f}")
        previous = self._inner.last_sample
        stuck = self._schedule.active(now, FaultKind.SENSOR_STUCK)
        if stuck is not None and previous is not None and stuck.target is None:
            self.stuck_reads += 1
            return previous
        sample = self._inner.sample()
        if stuck is not None and previous is not None and stuck.target is not None:
            # Freeze the cluster's reading at its window-entry value; a
            # stale register does not track the previous tick.
            if self._stuck_hold is None or self._stuck_hold[0] is not stuck:
                held = previous.cluster_power_w.get(stuck.target)
                self._stuck_hold = (stuck, held) if held is not None else None
            if self._stuck_hold is not None:
                sample = self._replace_cluster_power(
                    sample, stuck.target, self._stuck_hold[1]
                )
                self.stuck_reads += 1
        elif stuck is None:
            self._stuck_hold = None
        spike = self._schedule.active(now, FaultKind.SENSOR_SPIKE)
        if spike is not None:
            sample = self._spiked(sample, spike.target, spike.magnitude)
            self.spikes += 1
        return sample

    @staticmethod
    def _replace_cluster_power(
        sample: SensorSample, cluster_id: str, watts: Optional[float]
    ) -> SensorSample:
        if watts is None or cluster_id not in sample.cluster_power_w:
            return sample
        power = dict(sample.cluster_power_w)
        power[cluster_id] = watts
        return SensorSample(
            chip_power_w=sum(power.values()),
            cluster_power_w=power,
            cluster_frequency_mhz=sample.cluster_frequency_mhz,
            cluster_voltage_v=sample.cluster_voltage_v,
        )

    # ------------------------------------------------------------------
    # Snapshot/restore (checkpointing)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Dict[str, object]:
        stuck = None
        if self._stuck_hold is not None:
            event, watts = self._stuck_hold
            index = next(
                i for i, e in enumerate(self._schedule.events) if e is event
            )
            stuck = {"event_index": index, "watts": watts}
        return {
            "stuck_hold": stuck,
            "dropouts": self.dropouts,
            "stuck_reads": self.stuck_reads,
            "spikes": self.spikes,
        }

    def restore_state(self, sim, state: Dict[str, object]) -> None:
        stuck = state["stuck_hold"]
        if stuck is None:
            self._stuck_hold = None
        else:
            # Re-bind to this process's event object: the stuck-window
            # entry test compares event identity, so the hold must point
            # at the same schedule slot the original run froze on.
            self._stuck_hold = (
                self._schedule.events[stuck["event_index"]],
                stuck["watts"],
            )
        self.dropouts = state["dropouts"]
        self.stuck_reads = state["stuck_reads"]
        self.spikes = state["spikes"]

    @staticmethod
    def _spiked(
        sample: SensorSample, cluster_id: Optional[str], factor: float
    ) -> SensorSample:
        power = {
            cid: watts * (factor if cluster_id in (None, cid) else 1.0)
            for cid, watts in sample.cluster_power_w.items()
        }
        return SensorSample(
            chip_power_w=sum(power.values()),
            cluster_power_w=power,
            cluster_frequency_mhz=sample.cluster_frequency_mhz,
            cluster_voltage_v=sample.cluster_voltage_v,
        )


class FaultyThermalSensor:
    """A :class:`ThermalSensor` front end applying scheduled thermal faults.

    Drop-in for the engine's thermal sensor attribute: during a
    :attr:`FaultKind.THERMAL_SENSOR_STUCK` window ``sample()`` repeats the
    last reading (stale thermal zone register); a cluster-targeted event
    freezes only that cluster's reading at its window-entry value.  The
    physics (:class:`~repro.hw.thermal.ThermalModel`) keeps heating
    underneath -- only the supervisor's view goes blind.
    """

    def __init__(self, inner: ThermalSensor, schedule: FaultSchedule, clock):
        self._inner = inner
        self._schedule = schedule
        self._clock = clock
        #: Cluster temperature frozen at entry of the active targeted window.
        self._stuck_hold: Optional[Tuple[object, float]] = None
        self.stuck_reads = 0

    @property
    def last_sample(self) -> Optional[ThermalSample]:
        return self._inner.last_sample

    def sample(self) -> ThermalSample:
        now = self._clock()
        previous = self._inner.last_sample
        stuck = self._schedule.active(now, FaultKind.THERMAL_SENSOR_STUCK)
        if stuck is not None and previous is not None and stuck.target is None:
            self.stuck_reads += 1
            return previous
        sample = self._inner.sample()
        if stuck is not None and previous is not None and stuck.target is not None:
            if self._stuck_hold is None or self._stuck_hold[0] is not stuck:
                held = previous.cluster_temperature_c.get(stuck.target)
                self._stuck_hold = (stuck, held) if held is not None else None
            if self._stuck_hold is not None:
                temps = dict(sample.cluster_temperature_c)
                temps[stuck.target] = self._stuck_hold[1]
                sample = ThermalSample(cluster_temperature_c=temps)
                self.stuck_reads += 1
        elif stuck is None:
            self._stuck_hold = None
        return sample

    # ------------------------------------------------------------------
    # Snapshot/restore (checkpointing)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Dict[str, object]:
        stuck = None
        if self._stuck_hold is not None:
            event, temp = self._stuck_hold
            index = next(
                i for i, e in enumerate(self._schedule.events) if e is event
            )
            stuck = {"event_index": index, "temp": temp}
        return {"stuck_hold": stuck, "stuck_reads": self.stuck_reads}

    def restore_state(self, sim, state: Dict[str, object]) -> None:
        stuck = state["stuck_hold"]
        if stuck is None:
            self._stuck_hold = None
        else:
            # Re-bind to this process's event object (identity-compared).
            self._stuck_hold = (
                self._schedule.events[stuck["event_index"]],
                stuck["temp"],
            )
        self.stuck_reads = state["stuck_reads"]


class FaultyCounters:
    """A :class:`~repro.hw.counters.CounterEmitter` front end for counter faults.

    Drop-in for the estimation pipeline's emitter: during a
    :attr:`FaultKind.COUNTER_BIAS` window every counter of the targeted
    cluster's cores reads ``magnitude`` times its true value; during a
    :attr:`FaultKind.COUNTER_DROPOUT` window they all read zero (an
    offlined counter bank).  The inner emitter is always sampled first,
    so the RNG advances identically with and without active windows and
    post-window behaviour is bit-identical to a fault-free run.
    """

    def __init__(self, inner, schedule: FaultSchedule, clock, core_cluster: Dict[str, str]):
        self._inner = inner
        self._schedule = schedule
        self._clock = clock
        self._core_cluster = dict(core_cluster)
        self._last_sample: Optional[CounterSample] = None
        self.bias_reads = 0
        self.dropout_reads = 0

    @property
    def config(self):
        return self._inner.config

    @property
    def last_sample(self) -> Optional[CounterSample]:
        return self._last_sample or self._inner.last_sample

    def sample(self, time_s: float, dt: float) -> CounterSample:
        sample = self._inner.sample(time_s, dt)
        now = self._clock()
        bias = self._schedule.active(now, FaultKind.COUNTER_BIAS)
        dropout = self._schedule.active(now, FaultKind.COUNTER_DROPOUT)
        if bias is not None or dropout is not None:
            core_counters: Dict[str, Dict[str, float]] = {}
            for core_id, counters in sample.core_counters.items():
                cluster_id = self._core_cluster.get(core_id)
                if (
                    dropout is not None
                    and self._schedule.active(
                        now, FaultKind.COUNTER_DROPOUT, cluster_id
                    )
                    is not None
                ):
                    self.dropout_reads += 1
                    core_counters[core_id] = dict.fromkeys(COUNTER_NAMES, 0.0)
                    continue
                if (
                    bias is not None
                    and self._schedule.active(
                        now, FaultKind.COUNTER_BIAS, cluster_id
                    )
                    is not None
                ):
                    self.bias_reads += 1
                    factor = bias.magnitude
                    core_counters[core_id] = {
                        name: value * factor for name, value in counters.items()
                    }
                    continue
                core_counters[core_id] = counters
            sample = CounterSample(time_s=sample.time_s, core_counters=core_counters)
        self._last_sample = sample
        return sample

    # -- checkpoint passthrough ----------------------------------------
    def rng_state(self):
        return self._inner.rng_state()

    def set_rng_state(self, state) -> None:
        self._inner.set_rng_state(state)

    # ------------------------------------------------------------------
    # Snapshot/restore (checkpointing)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Dict[str, object]:
        return {
            "bias_reads": self.bias_reads,
            "dropout_reads": self.dropout_reads,
        }

    def restore_state(self, sim, state: Dict[str, object]) -> None:
        self.bias_reads = state["bias_reads"]
        self.dropout_reads = state["dropout_reads"]


class FaultInjector:
    """Wires a :class:`FaultSchedule` into a running simulation.

    Usage::

        injector = FaultInjector(sim, schedule).attach()
        sim.run(60.0)
        print(injector.stats())

    Attach exactly once, before the first tick.  ``Simulation.step``
    calls :meth:`before_tick` first; ``request_level`` asks
    :meth:`intercepts_dvfs` and ``migrate`` asks :meth:`refuses_migration`.
    """

    def __init__(self, sim, schedule: FaultSchedule):
        self.sim = sim
        self.schedule = schedule
        self._attached = False
        #: Delayed DVFS requests: (due tick, cluster, level index).
        self._pending_dvfs: List[Tuple[int, Cluster, int]] = []
        #: Hotplug events currently applied (index into schedule order).
        self._unplugged: Dict[int, str] = {}
        #: Tasks whose heartbeats the engine withholds for this injector.
        self._withheld: Set[Task] = set()
        self.dvfs_dropped = 0
        self.dvfs_delayed = 0
        self.migrations_failed = 0
        self.heartbeats_lost = 0
        self.unplugs = 0
        self.replugs = 0
        self.cooling_degraded_ticks = 0
        self.runaway_ticks = 0
        self.drift_ticks = 0
        #: Whether any scheduled fault perturbs the thermal *physics*
        #: (sensor-stuck only blinds the reading path).
        self._has_thermal_model_faults = any(
            e.kind in (FaultKind.COOLING_DEGRADED, FaultKind.THERMAL_RUNAWAY)
            for e in schedule
        )
        #: Whether the schedule walks any cluster's true power draw.
        self._has_power_drift = any(
            e.kind is FaultKind.POWER_MODEL_DRIFT for e in schedule
        )
        self._has_heartbeat_loss = bool(schedule.of_kind(FaultKind.HEARTBEAT_LOSS))

    # ------------------------------------------------------------------
    def attach(self) -> "FaultInjector":
        if self._attached:
            raise RuntimeError("fault injector already attached")
        sim = self.sim
        if sim.fault_injector is not None:
            raise RuntimeError("a fault injector is already attached to this simulation")
        self._attached = True
        thermal_kinds = sorted(
            {e.kind.value for e in self.schedule if e.kind in THERMAL_FAULTS}
        )
        if thermal_kinds and sim.thermal is None:
            raise ValueError(
                f"schedule contains thermal faults ({', '.join(thermal_kinds)}) "
                "but the simulation has no thermal tracking; set "
                "SimConfig.thermal"
            )
        counter_kinds = sorted(
            {e.kind.value for e in self.schedule if e.kind in COUNTER_FAULTS}
        )
        if counter_kinds and getattr(sim, "estimation", None) is None:
            raise ValueError(
                f"schedule contains counter faults ({', '.join(counter_kinds)}) "
                "but the simulation has no estimation pipeline; set "
                "SimConfig.estimation"
            )
        sim.sensor = FaultySensor(sim.sensor, self.schedule, lambda: sim.now)
        if self.schedule.of_kind(FaultKind.THERMAL_SENSOR_STUCK):
            sim.thermal_sensor = FaultyThermalSensor(
                sim.thermal_sensor, self.schedule, lambda: sim.now
            )
        if counter_kinds:
            core_cluster = {
                core.core_id: cluster.cluster_id
                for cluster in sim.chip.clusters
                for core in cluster.cores
            }
            sim.estimation.emitter = FaultyCounters(
                sim.estimation.emitter, self.schedule, lambda: sim.now, core_cluster
            )
        sim.fault_injector = self
        return self

    def before_tick(self) -> None:
        """Apply the windows of the tick about to run (``step`` calls it first)."""
        self._pump_delayed_dvfs()
        self._apply_hotplug()
        self._apply_thermal()
        self._apply_power_drift()
        self._apply_heartbeat_loss()

    # ------------------------------------------------------------------
    # DVFS: dropped and delayed actuations
    # ------------------------------------------------------------------
    def intercepts_dvfs(self, cluster: Cluster, index: int) -> bool:
        """Whether a DVFS write is dropped or delayed (``request_level`` asks).

        A dropped write "succeeds" but the regulator never sees it.  A
        delayed one reaches :meth:`Simulation.set_level` ``delay_ticks``
        ticks later, at the top of that tick.
        """
        sim = self.sim
        if self.schedule.active(sim.now, FaultKind.DVFS_DROP, cluster.cluster_id) is not None:
            self.dvfs_dropped += 1
            return True
        delay = self.schedule.active(sim.now, FaultKind.DVFS_DELAY, cluster.cluster_id)
        if delay is None:
            return False
        self.dvfs_delayed += 1
        self._pending_dvfs.append((sim.tick_index + delay.delay_ticks, cluster, index))
        return True

    def _pump_delayed_dvfs(self) -> None:
        sim = self.sim
        due = [entry for entry in self._pending_dvfs if entry[0] <= sim.tick_index]
        if not due:
            return
        self._pending_dvfs = [
            entry for entry in self._pending_dvfs if entry[0] > sim.tick_index
        ]
        for _, cluster, index in due:
            sim.set_level(cluster, index)

    # ------------------------------------------------------------------
    # Migrations
    # ------------------------------------------------------------------
    def refuses_migration(self, task: Task) -> bool:
        """Whether a migration of ``task`` fails (``migrate`` asks)."""
        if self.schedule.active(self.sim.now, FaultKind.MIGRATION_FAIL, task.name) is None:
            return False
        self.migrations_failed += 1
        return True

    # ------------------------------------------------------------------
    # Heartbeats
    # ------------------------------------------------------------------
    def _beats_seen(self, task: Task) -> float:
        """The cumulative beat count ``task``'s heart-rate monitor last saw."""
        samples = task.hrm._samples  # the monitor state checkpoints carry
        if samples:
            return samples[-1][1]
        self.sim.sync()  # nothing recorded yet: the task's own counter
        return task.total_beats

    def _apply_heartbeat_loss(self) -> None:
        """Withhold the heartbeats of every active task a window covers.

        The withheld tasks and ``sim.active_tasks()`` are matched each
        tick, so arrivals and tasks re-materialised on resume are covered
        too; the engine withholds only active tasks' beats, so no other
        task needs a look.  A task entering a window is held at the count
        its monitor last saw, and released when no window covers it: the
        observed rate collapses while real work continues.
        """
        if not self._has_heartbeat_loss:
            return
        sim = self.sim
        now = sim.now
        withheld = self._withheld
        if not withheld and self.schedule.active(now, FaultKind.HEARTBEAT_LOSS) is None:
            return
        window = self.schedule.active
        kind = FaultKind.HEARTBEAT_LOSS
        for task in [t for t in withheld if window(now, kind, t.name) is None]:
            withheld.discard(task)
            sim.withhold_heartbeats(task, None)
        for task in sim.active_tasks():
            if window(now, kind, task.name) is None:
                continue
            if task not in withheld:
                withheld.add(task)
                sim.withhold_heartbeats(task, self._beats_seen(task))
            self.heartbeats_lost += 1  # this tick's sample is held back

    # ------------------------------------------------------------------
    # Hotplug + per-tick pump
    # ------------------------------------------------------------------
    def _apply_hotplug(self) -> None:
        sim = self.sim
        for idx, event in enumerate(self.schedule.events):
            if event.kind is not FaultKind.HOTPLUG:
                continue
            cluster_id = event.target
            if cluster_id is None:
                continue
            active = event.active_at(sim.now)
            if active and idx not in self._unplugged:
                self._unplugged[idx] = cluster_id
                if cluster_id not in sim.offline_clusters:
                    sim.hotplug_out(sim.chip.cluster(cluster_id))
                    self.unplugs += 1
            elif not active and idx in self._unplugged and sim.now >= event.end_s:
                del self._unplugged[idx]
                # Replug only if no other active window still holds it out.
                if cluster_id not in self._unplugged.values():
                    sim.hotplug_in(sim.chip.cluster(cluster_id))
                    self.replugs += 1

    def _apply_thermal(self) -> None:
        """Drive the thermal model's fault hooks from the schedule.

        Recomputed statelessly from the schedule every tick (no window
        entry/exit bookkeeping to snapshot): the model's resistance
        factor and heat injection are simply *set* to whatever the
        currently-active windows dictate, 1.0 / 0 W otherwise.
        """
        sim = self.sim
        if not self._has_thermal_model_faults or sim.thermal is None:
            return
        for cluster in sim.chip.clusters:
            cluster_id = cluster.cluster_id
            cooling = self.schedule.active(
                sim.now, FaultKind.COOLING_DEGRADED, cluster_id
            )
            sim.thermal.set_resistance_factor(
                cluster_id, cooling.magnitude if cooling is not None else 1.0
            )
            runaway = self.schedule.active(
                sim.now, FaultKind.THERMAL_RUNAWAY, cluster_id
            )
            sim.thermal.set_power_injection(
                cluster_id, runaway.magnitude if runaway is not None else 0.0
            )
            if cooling is not None:
                self.cooling_degraded_ticks += 1
            if runaway is not None:
                self.runaway_ticks += 1

    def _apply_power_drift(self) -> None:
        """Walk cluster power-draw factors from the schedule.

        Stateless like :meth:`_apply_thermal`: each cluster's
        ``drift_factor`` is *set* every tick to the active window's ramp
        value (1 at window entry, ``1 + magnitude`` at exit -- a slow
        coefficient walk the fitted model has to chase), or back to 1.0
        outside any window.
        """
        sim = self.sim
        if not self._has_power_drift:
            return
        for cluster in sim.chip.clusters:
            drift = self.schedule.active(
                sim.now, FaultKind.POWER_MODEL_DRIFT, cluster.cluster_id
            )
            if drift is None:
                cluster.drift_factor = 1.0
            else:
                progress = (sim.now - drift.start_s) / drift.duration_s
                cluster.drift_factor = 1.0 + drift.magnitude * progress
                self.drift_ticks += 1

    # ------------------------------------------------------------------
    # Snapshot/restore (checkpointing)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Dict[str, object]:
        """All mutable injector state, JSON-serialisable."""
        return {
            "pending_dvfs": [
                [due_tick, cluster.cluster_id, index]
                for due_tick, cluster, index in self._pending_dvfs
            ],
            "unplugged": [
                [index, cluster_id] for index, cluster_id in self._unplugged.items()
            ],
            "beats_seen": [
                [task.name, self._beats_seen(task)] for task in self.sim.tasks
            ]
            if self._has_heartbeat_loss
            else [],
            "dvfs_dropped": self.dvfs_dropped,
            "dvfs_delayed": self.dvfs_delayed,
            "migrations_failed": self.migrations_failed,
            "heartbeats_lost": self.heartbeats_lost,
            "unplugs": self.unplugs,
            "replugs": self.replugs,
            "cooling_degraded_ticks": self.cooling_degraded_ticks,
            "runaway_ticks": self.runaway_ticks,
            "drift_ticks": self.drift_ticks,
        }

    def restore_state(self, sim, state: Dict[str, object]) -> None:
        """Apply a snapshot; the injector must already be attached to ``sim``."""
        self._pending_dvfs = [
            (due_tick, sim.chip.cluster(cluster_id), index)
            for due_tick, cluster_id, index in state["pending_dvfs"]
        ]
        self._unplugged = {
            int(index): cluster_id for index, cluster_id in state["unplugged"]
        }
        # ``beats_seen`` needs no restore: the restored monitors hold those
        # counts, and the next before_tick withholds covered tasks at them.
        self.dvfs_dropped = state["dvfs_dropped"]
        self.dvfs_delayed = state["dvfs_delayed"]
        self.migrations_failed = state["migrations_failed"]
        self.heartbeats_lost = state["heartbeats_lost"]
        self.unplugs = state["unplugs"]
        self.replugs = state["replugs"]
        self.cooling_degraded_ticks = state.get("cooling_degraded_ticks", 0)
        self.runaway_ticks = state.get("runaway_ticks", 0)
        self.drift_ticks = state.get("drift_ticks", 0)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Counts of injected faults, for reports and assertions."""
        sensor = self.sim.sensor
        emitter = getattr(getattr(self.sim, "estimation", None), "emitter", None)
        return {
            "sensor_dropouts": getattr(sensor, "dropouts", 0),
            "sensor_stuck_reads": getattr(sensor, "stuck_reads", 0),
            "sensor_spikes": getattr(sensor, "spikes", 0),
            "dvfs_dropped": self.dvfs_dropped,
            "dvfs_delayed": self.dvfs_delayed,
            "migrations_failed": self.migrations_failed,
            "heartbeats_lost": self.heartbeats_lost,
            "unplugs": self.unplugs,
            "replugs": self.replugs,
            "cooling_degraded_ticks": self.cooling_degraded_ticks,
            "runaway_ticks": self.runaway_ticks,
            "drift_ticks": self.drift_ticks,
            "thermal_stuck_reads": getattr(
                self.sim.thermal_sensor, "stuck_reads", 0
            ),
            "counter_bias_reads": getattr(emitter, "bias_reads", 0),
            "counter_dropout_reads": getattr(emitter, "dropout_reads", 0),
        }
