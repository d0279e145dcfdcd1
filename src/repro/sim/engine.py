"""The discrete-time simulation engine.

Plays the role of the Linux kernel on the TC2 board: it owns the task-to-
core mapping, dispatches supply to tasks every tick, advances DVFS
transitions, samples the power sensors, and invokes the installed governor
(power-management policy) once per tick.  Governors mutate the system
exclusively through the engine's control surface (allocations, weights,
DVFS requests, migrations, power gating), mirroring how the paper's agents
act through nice values, cpufreq and sched_setaffinity.

The default tick is 10 ms -- the Linux scheduling epoch the paper quotes;
governors implement their own slower invocation periods on top (the PPM
bid round is ~32 ms).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Protocol, Sequence

from ..hw.energy import EnergyMeter
from ..hw.migration import MigrationCostModel
from ..hw.sensors import (
    PowerSensor,
    SensorReadError,
    SensorSample,
    ThermalSample,
    ThermalSensor,
)
from ..hw.thermal import ThermalConfig, ThermalCycleCounter, ThermalModel
from ..hw.topology import Chip, Cluster, Core
from ..tasks.task import Task
from .loadtracking import LoadTracker
from .metrics import MetricsCollector
from .migration import MigrationManager, MigrationRecord
from .placement import Placement
from .scheduler import compute_grants


def derive_stream_seed(seed: Optional[int], stream: str) -> Optional[int]:
    """A per-stream sub-seed derived deterministically from ``seed``.

    Each stochastic component gets its own named stream, so adding a new
    randomised subsystem later cannot perturb the random numbers an
    existing one draws under the same engine seed.  ``None`` stays
    ``None`` (unseeded components remain unseeded).
    """
    if seed is None:
        return None
    digest = hashlib.sha256(f"{seed}:{stream}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class Governor(Protocol):
    """A power-management policy driving the engine's control surface."""

    def prepare(self, sim: "Simulation") -> None:
        """Called once before the first tick (initial placement etc.)."""

    def on_tick(self, sim: "Simulation") -> None:
        """Called every tick before supply is dispatched."""


#: Task count from which the vectorised paths take over.  Below it the
#: per-object loops beat the gather/scatter cost of the NumPy kernels, so
#: ``Simulation(...)`` builds the object tick loop for fewer initial tasks,
#: and the market, the PPM demand gather and the LBT search stay scalar
#: for fewer market tasks.  Those three gates count market tasks, never
#: ask which tick loop runs, so both loops take the same path in a run.
VEC_MIN_TASKS = 32


@dataclass
class SimConfig:
    """Engine configuration.

    Attributes:
        dt: Tick length in seconds (default: the 10 ms Linux epoch).
        auto_power_gate: Power clusters down when they hold no tasks and
            back up when tasks are placed on them (paper section 2: "If
            there are no active tasks in an entire cluster, then we can
            power down that cluster").
        metrics_warmup_s: Prefix excluded from summary metrics.
        sensor_noise_std_w: Gaussian noise on power readings (0 = ideal).
        seed: Seed for the engine's stochastic parts; each component
            draws from its own stream via :func:`derive_stream_seed`.
        audit: Attach a non-strict :class:`~repro.core.audit.MarketAuditor`
            to the governor's market (when it has one) and surface the
            collected invariant violations in the metrics summary.
        thermal: Enable simulation-time thermal tracking (see
            :class:`~repro.hw.thermal.ThermalConfig`).  ``None`` (default)
            preserves pre-thermal behaviour exactly: no thermal state is
            created and telemetry is byte-identical to older runs.
        estimation: Enable estimated-power operation (see
            :class:`~repro.core.powerest.EstimationConfig`): synthetic
            performance counters feed an online power model whose output
            the governors consume instead of the metered reading.
            ``None`` (default) keeps runs byte-identical to older ones.

    The tick loop is not configured here: ``Simulation(...)`` picks it
    from the task count (:data:`VEC_MIN_TASKS`), and snapshots restore
    into either loop.
    """

    dt: float = 0.01
    auto_power_gate: bool = True
    metrics_warmup_s: float = 2.0
    sensor_noise_std_w: float = 0.0
    seed: Optional[int] = None
    audit: bool = False
    thermal: Optional[ThermalConfig] = None
    estimation: Optional[object] = None

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.metrics_warmup_s < 0:
            raise ValueError("metrics_warmup_s must be non-negative")
        if self.sensor_noise_std_w < 0:
            raise ValueError("sensor_noise_std_w must be non-negative")
        if self.thermal is not None and not isinstance(self.thermal, ThermalConfig):
            raise ValueError("thermal must be a ThermalConfig or None")
        if self.estimation is not None:
            # Local import: the engine must not import repro.core at the
            # top (repro.core imports this module at package load).
            from ..core.powerest import EstimationConfig

            if not isinstance(self.estimation, EstimationConfig):
                raise ValueError("estimation must be an EstimationConfig or None")


class Simulation:
    """One experiment: a chip, a task set and a governor, advanced in ticks."""

    def __new__(
        cls,
        chip: Optional[Chip] = None,
        tasks: Optional[Sequence[Task]] = None,
        governor: Optional[Governor] = None,
        config: Optional[SimConfig] = None,
        migration_cost_model: Optional[MigrationCostModel] = None,
    ) -> "Simulation":
        # One engine per regime: Simulation(...) builds the columnar
        # subclass from VEC_MIN_TASKS initial tasks up and the object loop
        # below, where it is the faster of the two.  Subclasses and no-arg
        # construction (deepcopy, pickling) keep the class asked for.
        if cls is Simulation and tasks is not None and len(tasks) >= VEC_MIN_TASKS:
            from .columnar import ColumnarSimulation

            return super().__new__(ColumnarSimulation)
        return super().__new__(cls)

    def __init__(
        self,
        chip: Chip,
        tasks: Sequence[Task],
        governor: Governor,
        config: Optional[SimConfig] = None,
        migration_cost_model: Optional[MigrationCostModel] = None,
    ):
        self.chip = chip
        self.tasks: List[Task] = list(tasks)
        self.governor = governor
        self.config = config or SimConfig()
        self.placement = Placement(chip)
        self.migrations = MigrationManager(
            placement=self.placement,
            cost_model=migration_cost_model or MigrationCostModel(),
        )
        self.load_tracker = LoadTracker()
        self.sensor = PowerSensor(
            chip,
            noise_std_w=self.config.sensor_noise_std_w,
            seed=derive_stream_seed(self.config.seed, "power-sensor-noise"),
        )
        self.energy = EnergyMeter()
        self.metrics = MetricsCollector(warmup_s=self.config.metrics_warmup_s)
        self.now: float = 0.0
        self.tick_index: int = 0
        self._allocations: Dict[Task, float] = {}
        self._weights: Dict[Task, float] = {}
        self._prepared = False
        # Per-tick cache of the active task list.  Activity only depends
        # on ``now``, which is constant within a tick, so every consumer
        # of ``active_tasks`` inside one tick shares a single scan.
        self._active_cache_now: Optional[float] = None
        self._active_cache: List[Task] = []
        #: Whether any task can ever retire (finite duration); with only
        #: unbounded tasks the per-tick retirement scan is skipped.
        self._any_finite_task = any(t.duration is not None for t in self.tasks)
        self._gate_held_down: set = set()
        self._offline: set = set()
        self._last_sensor_sample: Optional[SensorSample] = None
        #: Failed sensor reads substituted with the last good sample.
        self.sensor_read_failures: int = 0
        #: Migrations refused (offline destination or injected fault).
        self.failed_migrations: int = 0
        self.auditor = None
        self._last_audited_round: object = None
        #: Optional :class:`repro.checkpoint.CheckpointManager`, invoked
        #: at the end of every tick; ``None`` disables checkpointing.
        self.checkpointer = None
        #: Optional :class:`repro.core.admission.OverloadManager`, polled
        #: at the top of every tick for open-ended task arrivals; ``None``
        #: keeps the task population fixed (the paper's setting).
        self.arrivals = None
        #: Per-cluster V-F level ceilings (thermal throttling); requests
        #: above a ceiling are clamped to it, like hardware throttling.
        self._level_ceiling: Dict[str, int] = {}
        # -- simulation-time thermals (None unless config.thermal set) --
        self.thermal: Optional[ThermalModel] = None
        self.thermal_sensor: Optional[ThermalSensor] = None
        self.thermal_supervisor = None
        self.cycle_counters: Dict[str, ThermalCycleCounter] = {}
        #: Seconds any cluster's true temperature exceeded ``tcrit_c``.
        self.time_over_tcrit_s: float = 0.0
        #: Failed thermal reads substituted with the last good sample.
        self.thermal_read_failures: int = 0
        self._last_thermal_sample: Optional[ThermalSample] = None
        tcfg = self.config.thermal
        if tcfg is not None:
            cluster_ids = [c.cluster_id for c in chip.clusters]
            self.thermal = ThermalModel(cluster_ids, params=tcfg.params)
            self.thermal_sensor = ThermalSensor(
                self.thermal,
                noise_std_c=tcfg.sensor_noise_std_c,
                seed=derive_stream_seed(self.config.seed, "thermal-sensor-noise"),
            )
            self.cycle_counters = {
                cid: ThermalCycleCounter(tcfg.cycle_threshold_k)
                for cid in cluster_ids
            }
            if tcfg.protection is not None:
                # Local import: repro.core imports this module at package
                # load, so the engine must not import repro.core at the top.
                from ..core.resilience import ThermalSupervisor

                self.thermal_supervisor = ThermalSupervisor(
                    tcfg.protection, tcrit_c=tcfg.tcrit_c
                )
        # -- estimated-power mode (None unless config.estimation set) --
        #: Optional :class:`repro.core.powerest.EstimationManager`; when
        #: set, governors consume its estimated sample via
        #: :meth:`last_power_sample` instead of the metered reading.
        self.estimation = None
        self._estimated_sample: Optional[SensorSample] = None
        ecfg = self.config.estimation
        if ecfg is not None:
            from ..core.powerest import EstimationManager  # local: cycle

            self.estimation = EstimationManager(
                chip, ecfg, derive_stream_seed(self.config.seed, "perf-counters")
            )

    # ------------------------------------------------------------------
    # Control surface used by governors
    # ------------------------------------------------------------------
    @property
    def dt(self) -> float:
        return self.config.dt

    def active_tasks(self) -> List[Task]:
        """Tasks alive at the current time."""
        return list(self._active_now())

    def _active_now(self) -> List[Task]:
        """The cached active-task list for this tick (do not mutate)."""
        if self._active_cache_now != self.now:
            now = self.now
            self._active_cache = [t for t in self.tasks if t.is_active(now)]
            self._active_cache_now = now
        return self._active_cache

    def invalidate_task_cache(self) -> None:
        """Drop per-tick task caches after out-of-band task mutation.

        Checkpoint restore and scenario drivers that edit task start or
        duration fields mid-run must call this so the engine re-scans.
        """
        self._active_cache_now = None
        self._any_finite_task = any(t.duration is not None for t in self.tasks)

    def sync(self) -> None:
        """Materialise the object view of any column-resident hot state.

        The reference engine mutates ``Task`` objects directly, so this
        is a no-op; the columnar engine overrides it as the observation
        barrier that flushes dirty columns back to object attributes.
        Every out-of-band reader of per-task hot state (governor hooks,
        fault windows, audits, checkpoints, telemetry fallbacks) calls
        this before touching ``Task`` attributes.
        """

    def set_allocation(self, task: Task, pus: float) -> None:
        """Pin an explicit supply allocation for ``task`` (PPM market)."""
        self._allocations[task] = max(0.0, pus)

    def set_allocations(self, pairs: Dict[Task, float]) -> None:
        """Bulk form of :meth:`set_allocation` (one market round's grants).

        Insertion order and clamping match a :meth:`set_allocation` loop
        over ``pairs.items()`` exactly.
        """
        self._allocations.update(
            (task, max(0.0, pus)) for task, pus in pairs.items()
        )

    def clear_allocation(self, task: Task) -> None:
        self._allocations.pop(task, None)

    def clear_allocations(self) -> None:
        self._allocations.clear()

    def set_weight(self, task: Task, weight: float) -> None:
        """Set the fair-share weight for ``task`` (nice-value analogue)."""
        self._weights[task] = max(0.0, weight)

    def weight_of(self, task: Task) -> float:
        return self._weights.get(task, 1.0)

    def allocation_of(self, task: Task) -> Optional[float]:
        return self._allocations.get(task)

    def request_level(self, cluster: Cluster, index: int) -> bool:
        """Ask a cluster's regulator for V-F level ``index`` (cpufreq).

        Requests above an active thermal ceiling are clamped to it, the
        way hardware throttling silently caps cpufreq: every governor
        (PPM, HPM, HL, ondemand, PID-driven) goes through this method, so
        none of them can out-vote the thermal supervisor.
        """
        ceiling = self._level_ceiling.get(cluster.cluster_id)
        if ceiling is not None and index > ceiling:
            index = ceiling
        return cluster.regulator.request(index)

    def step_level(self, cluster: Cluster, delta: int) -> bool:
        index = cluster.vf_table.clamp_index(
            cluster.regulator.target_index + delta
        )
        return self.request_level(cluster, index)

    # ------------------------------------------------------------------
    # V-F ceilings (thermal throttling surface)
    # ------------------------------------------------------------------
    def set_level_ceiling(self, cluster: Cluster, index: int) -> None:
        """Cap the cluster's V-F level at ``index``; forces down if above.

        Actuates the regulator directly (not through the governor-facing
        ``request_level`` seam), mirroring hardware thermal throttling
        which sits below a possibly-faulty cpufreq write path.
        """
        index = cluster.vf_table.clamp_index(index)
        self._level_ceiling[cluster.cluster_id] = index
        if cluster.regulator.target_index > index:
            cluster.regulator.request(index)

    def clear_level_ceiling(self, cluster: Cluster) -> None:
        self._level_ceiling.pop(cluster.cluster_id, None)

    def level_ceiling_of(self, cluster_id: str) -> Optional[int]:
        """Active V-F ceiling for ``cluster_id``, or ``None`` (uncapped)."""
        return self._level_ceiling.get(cluster_id)

    def place(self, task: Task, core: Core) -> None:
        """Initial (cost-free) placement of a task onto a core."""
        if core.cluster.cluster_id in self._offline:
            raise ValueError(
                f"cannot place {task.name}: cluster "
                f"{core.cluster.cluster_id} is hot-unplugged"
            )
        self.placement.place(task, core)

    def migrate(self, task: Task, destination: Core) -> MigrationRecord:
        """Migrate a task, charging the measured cost.

        A migration onto a hot-unplugged cluster fails without moving the
        task (``record.failed`` is set), the way ``sched_setaffinity``
        refuses an offlined CPU; governors observe the placement is
        unchanged and retry or re-plan.
        """
        if destination.cluster.cluster_id in self._offline:
            return self.failed_migration_record(task, destination)
        return self.migrations.migrate(task, destination, now=self.now)

    def failed_migration_record(self, task: Task, destination: Core) -> MigrationRecord:
        """Account a migration that failed to move ``task`` (no cost)."""
        self.failed_migrations += 1
        source = self.placement.core_of(task)
        return MigrationRecord(
            time_s=self.now,
            task_name=task.name,
            source_core=source.core_id if source is not None else "?",
            destination_core=destination.core_id,
            inter_cluster=(
                source is None or source.cluster is not destination.cluster
            ),
            cost_s=0.0,
            failed=True,
        )

    def power_down(self, cluster: Cluster, hold: bool = False) -> None:
        """Gate a cluster off.  ``hold`` keeps it off even with tasks mapped."""
        cluster.power_down()
        if hold:
            self._gate_held_down.add(cluster.cluster_id)

    def power_up(self, cluster: Cluster) -> None:
        if cluster.cluster_id in self._offline:
            return  # hot-unplugged hardware cannot be powered back up
        self._gate_held_down.discard(cluster.cluster_id)
        cluster.power_up()

    # ------------------------------------------------------------------
    # Hotplug (fault surface)
    # ------------------------------------------------------------------
    def hotplug_out(self, cluster: Cluster) -> List[Task]:
        """Hot-unplug ``cluster``: evict its tasks and gate it off.

        The displaced tasks are re-placed on the remaining clusters at the
        start of the next tick (governor ``place_task`` hook first, then
        the default boot-cluster rule).  Returns the displaced tasks.
        """
        if cluster.cluster_id in self._offline:
            return []
        displaced = self.placement.tasks_on_cluster(cluster)
        for task in displaced:
            self.placement.remove(task)
        self.power_down(cluster, hold=True)
        self._offline.add(cluster.cluster_id)
        return displaced

    def hotplug_in(self, cluster: Cluster) -> None:
        """Replug a hot-unplugged cluster (stays gated until tasks arrive)."""
        if cluster.cluster_id not in self._offline:
            return
        self._offline.discard(cluster.cluster_id)
        self._gate_held_down.discard(cluster.cluster_id)

    @property
    def offline_clusters(self) -> FrozenSet[str]:
        """Ids of clusters currently hot-unplugged."""
        return frozenset(self._offline)

    def online_clusters(self) -> List[Cluster]:
        return [
            c for c in self.chip.clusters if c.cluster_id not in self._offline
        ]

    def last_power_sample(self) -> Optional[SensorSample]:
        """The power sample governors should act on.

        In estimated-power operation this is the estimation pipeline's
        (supervised) output; otherwise the metered reading.
        """
        if self._estimated_sample is not None:
            return self._estimated_sample
        return self.metered_power_sample()

    def metered_power_sample(self) -> Optional[SensorSample]:
        """Most recent metered (possibly fault-affected) power reading."""
        if self._last_sensor_sample is not None:
            return self._last_sensor_sample
        return self.sensor.last_sample

    def last_thermal_sample(self) -> Optional[ThermalSample]:
        """Most recent (possibly fault-affected) thermal reading."""
        if self._last_thermal_sample is not None:
            return self._last_thermal_sample
        if self.thermal_sensor is not None:
            return self.thermal_sensor.last_sample
        return None

    # ------------------------------------------------------------------
    # Engine loop
    # ------------------------------------------------------------------
    def _default_place(
        self, task: Task, cache: Optional[Dict[str, float]] = None
    ) -> None:
        """Place a new task on the least-loaded core of the slowest cluster.

        Matches the platform behaviour of booting work on the LITTLE
        cluster; the governor's LBT is expected to move it if that is
        wrong.  Hot-unplugged clusters are skipped; with every cluster
        offline the task stays unplaced (and idles) until one returns.
        """
        clusters = sorted(self.online_clusters(), key=lambda c: c.max_supply_pus)
        if not clusters:
            return
        core = self.placement.least_loaded_core(
            clusters[0].cores, self.now, cache=cache
        )
        self.placement.place(task, core)
        if cache is not None:
            cache[core.core_id] = cache[core.core_id] + task.true_demand_pus(
                core.cluster.core_type, self.now
            )

    def _ensure_placed(self) -> None:
        # Per-batch load memo: placing N tasks at one instant costs O(N)
        # demand evaluations instead of O(N^2) (see least_loaded_core).
        cache: Dict[str, float] = {}
        for task in self._active_now():
            if not self.placement.is_placed(task):
                place_task = getattr(self.governor, "place_task", None)
                if place_task is not None:
                    try:
                        place_task(self, task)
                    except ValueError:
                        pass  # governor chose offline hardware; use default
                    if self.placement.is_placed(task):
                        # Placed outside the cache's bookkeeping; evict so
                        # the next lookup recomputes that core fresh.
                        core = self.placement.core_of(task)
                        if core is not None:
                            cache.pop(core.core_id, None)
                        continue
                self._default_place(task, cache)

    def _retire_inactive(self) -> None:
        if not self._any_finite_task:
            return  # nothing can ever retire; skip the scan
        now = self.now
        retired = [
            task for task in self.placement.all_tasks() if not task.is_active(now)
        ]
        for task in retired:
            self.placement.remove(task)
            self._allocations.pop(task, None)
            self._weights.pop(task, None)
            self.load_tracker.forget(task)

    def _apply_power_gating(self) -> None:
        if not self.config.auto_power_gate:
            return
        for cluster in self.chip.clusters:
            if cluster.cluster_id in self._offline:
                continue
            has_tasks = self.placement.has_tasks(cluster)
            held = cluster.cluster_id in self._gate_held_down
            # Route through the public control surface so tracers see
            # auto-gating too.
            if has_tasks and not cluster.powered and not held:
                self.power_up(cluster)
            elif not has_tasks and cluster.powered:
                self.power_down(cluster)

    def _dispatch(self) -> None:
        dt = self.config.dt
        now = self.now
        allocations = self._allocations
        weights = self._weights
        tracker = self.load_tracker
        placement = self.placement
        inactive_mapped = False
        for cluster in self.chip.clusters:
            core_type = cluster.core_type
            for core in cluster.cores:
                mapped = placement.iter_tasks_on_core(core)
                if not mapped:
                    core.utilization = 0.0
                    continue
                # Fast path: every mapped task runnable (active, not
                # frozen by a migration) -- the common no-migration tick.
                runnable = mapped
                frozen: List[Task] = ()
                for t in mapped:
                    if not t.is_active(now) or t.frozen_until > now:
                        active_mapped = [t for t in mapped if t.is_active(now)]
                        if len(active_mapped) != len(mapped):
                            inactive_mapped = True
                        runnable = [t for t in active_mapped if t.frozen_until <= now]
                        frozen = [t for t in active_mapped if t.frozen_until > now]
                        break
                grants = compute_grants(
                    core.supply_pus, runnable, allocations, weights
                )
                consumed_total = 0.0
                for task in runnable:
                    granted = grants.get(task, 0.0)
                    consumed_total += task.consume(granted, core_type, now, dt)
                    # ``consume`` just computed the task's true demand;
                    # reuse it instead of re-evaluating the phase trace.
                    tracker.update(task, granted, task.last_demand_pus, dt)
                for task in frozen:
                    task.idle_tick(now, dt)
                    tracker.update(
                        task, 0.0, task.true_demand_pus(core_type, now), dt
                    )
                if core.supply_pus > 0.0:
                    core.utilization = min(1.0, consumed_total / core.supply_pus)
                else:
                    core.utilization = 0.0
        # Active tasks not mapped to any core (all clusters offline, or
        # evicted by a mid-tick hotplug) idle in place.  Every *active*
        # mapped task was dispatched above, so the placement map doubles
        # as the dispatch set and the common all-placed tick skips the
        # scan entirely.
        active = self._active_now()
        if inactive_mapped or placement.placed_count() != len(active):
            for task in active:
                if not placement.is_placed(task):
                    task.idle_tick(now, dt)

    def _read_sensor(self) -> SensorSample:
        """Sample power, substituting the last good sample on read failure.

        A failed hwmon read must not stall the kernel's accounting: the
        engine keeps running on the stale sample (or an all-zero one
        before the first success) and counts the failure.  Governor-side
        staleness handling lives in :mod:`repro.core.resilience`.
        """
        try:
            sample = self.sensor.sample()
        except SensorReadError:
            self.sensor_read_failures += 1
            sample = self._last_sensor_sample or SensorSample(
                chip_power_w=0.0,
                cluster_power_w={c.cluster_id: 0.0 for c in self.chip.clusters},
                cluster_frequency_mhz={
                    c.cluster_id: c.frequency_mhz for c in self.chip.clusters
                },
                cluster_voltage_v={c.cluster_id: 0.0 for c in self.chip.clusters},
            )
        self._last_sensor_sample = sample
        return sample

    def _step_thermal(self) -> Optional[Dict[str, float]]:
        """Advance thermals one tick; returns the true temperatures.

        Physics runs on the chip's *true* per-cluster power (a stuck or
        noisy power sensor cannot cool the silicon), while the supervisor
        acts on the *sensed* temperatures -- so thermal sensor faults make
        the protection blind exactly the way they would on hardware.
        Metrics record the true temperatures.
        """
        if self.thermal is None:
            return None
        dt = self.config.dt
        true_powers = {
            c.cluster_id: self.chip.cluster_power_w(c.cluster_id)
            for c in self.chip.clusters
        }
        temps = self.thermal.step(true_powers, dt)
        for cluster_id, counter in self.cycle_counters.items():
            counter.update(temps[cluster_id])
        if max(temps.values()) > self.config.thermal.tcrit_c:
            self.time_over_tcrit_s += dt
        try:
            sample = self.thermal_sensor.sample()
        except SensorReadError:
            self.thermal_read_failures += 1
            sample = self._last_thermal_sample or ThermalSample(
                cluster_temperature_c=dict(temps)
            )
        self._last_thermal_sample = sample
        if self.thermal_supervisor is not None:
            self.thermal_supervisor.on_tick(self, sample)
        return temps

    def _maybe_attach_auditor(self) -> None:
        if not self.config.audit:
            return
        market = getattr(self.governor, "market", None)
        if market is None:
            return
        from ..core.audit import MarketAuditor  # local: avoids import cycle

        self.auditor = MarketAuditor(market, strict=False)

    def _run_audit(self) -> None:
        """Audit the governor's market once per completed bid round."""
        if self.auditor is None:
            return
        last_round = getattr(self.governor, "last_round", None)
        if last_round is None or last_round is self._last_audited_round:
            return
        self._last_audited_round = last_round
        report = self.auditor.audit_now()
        if report.violations:
            self.metrics.audit_violations.extend(
                f"t={self.now:.3f}: {violation}" for violation in report.violations
            )

    def step(self) -> None:
        """Advance the simulation by one tick."""
        if not self._prepared:
            self._ensure_placed()
            self.governor.prepare(self)
            self._maybe_attach_auditor()
            self._prepared = True
        if self.arrivals is not None:
            self.arrivals.on_tick(self)
        self._retire_inactive()
        self._ensure_placed()
        self._apply_power_gating()
        self.governor.on_tick(self)
        self._run_audit()
        self._apply_power_gating()
        self.chip.tick(self.config.dt)
        self._dispatch()
        thermal_temps = self._step_thermal()
        sample = self._read_sensor()
        estimated_w: Optional[float] = None
        if self.estimation is not None:
            # Runs after the metered read so the estimator trains on this
            # tick's (counters, metered power) pair; governors see the
            # served sample on the next tick via ``last_power_sample``.
            served = self.estimation.on_tick(self, sample)
            self._estimated_sample = served
            estimated_w = served.chip_power_w
        self.energy.record(sample.cluster_power_w, self.config.dt)
        self.metrics.record(
            time_s=self.now,
            chip_power_w=sample.chip_power_w,
            cluster_power_w=sample.cluster_power_w,
            cluster_frequency_mhz=sample.cluster_frequency_mhz,
            tasks=self._active_now(),
            cluster_temperature_c=thermal_temps,
            estimated_chip_power_w=estimated_w,
        )
        self.now += self.config.dt
        self.tick_index += 1
        if self.checkpointer is not None:
            self.checkpointer.on_tick(self)

    def run(self, duration_s: float) -> MetricsCollector:
        """Run for ``duration_s`` seconds of simulated time."""
        if duration_s < 0:
            raise ValueError("duration must be non-negative")
        end = self.now + duration_s
        # Half-tick tolerance avoids a float-accumulation extra tick.
        while self.now < end - 0.5 * self.config.dt:
            self.step()
        # End-of-run barrier: callers inspect Task attributes and the
        # load tracker after run() returns, so the object view must be
        # current even under lazy columnar synchronisation.
        self.sync()
        return self.metrics


class ObjectSimulation(Simulation):
    """The object tick loop at any population.

    ``Simulation(...)`` never upgrades a subclass, so differential tests
    and benchmarks use this class to run the reference loop above
    :data:`VEC_MIN_TASKS`, as they use
    :class:`~repro.sim.columnar.ColumnarSimulation` to run the columnar
    loop below it.
    """
