"""PPM: the price-theory power-management governor.

Adapts the abstract market (:mod:`repro.core.market`) and the LBT module
onto the simulation engine, the way the paper's kernel modules sit between
the agents and Linux:

* every bid period (~31.7 ms) it converts observed heart rates to demands
  (Table 4), runs one market round, applies the resulting allocations
  (nice values in the paper) and DVFS requests (cpufreq);
* every 3 bid rounds it runs load balancing and every 6 bid rounds task
  migration (sched_setaffinity), skipping both in the emergency state;
* clusters left without tasks are powered down by the engine's gating.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..hw.sensors import SensorReadError, SensorSample
from ..sim.engine import VEC_MIN_TASKS, Simulation
from ..tasks.demand import demand_for_range
from ..tasks.estimation import OnlineDemandEstimator
from ..tasks.task import Task
from .agents import ChipPowerState
from .config import PPMConfig
from .estimation import SteadyStateEstimator
from .lbt import LBTModule, MoveDecision
from .market import Market, MarketObservations, RoundResult
from .resilience import (
    BackoffRetry,
    DVFSSupervisor,
    MarketWatchdog,
    StaleSensorDetector,
)


class _DemandVecCache:
    """Round-to-round arrays for the vectorized Table 4 demand conversion.

    ``ids``/``tasks``/``target`` are fixed while the market membership is
    unchanged; ``prev`` is last round's smoothed-demand array, valid
    until an out-of-band write to the smoothed dict bumps the owning
    governor's stamp (a move's seeded demand is written into it instead).
    """

    __slots__ = ("stamp", "ids", "tasks", "target", "prev")

    def __init__(self, stamp: int):
        self.stamp = stamp
        self.ids: List[str] = []
        self.tasks: List[Task] = []
        self.target = None
        self.prev = None


class PPMGovernor:
    """Price-theory based power manager (the paper's contribution)."""

    def __init__(self, config: Optional[PPMConfig] = None):
        self.config = config or PPMConfig()
        self.market = Market(self.config.market)
        self._chip = None
        self.estimator: Optional[SteadyStateEstimator] = None
        self.lbt: Optional[LBTModule] = None
        self._tasks_by_id: Dict[str, Task] = {}
        self._smoothed_demand: Dict[str, float] = {}
        #: Cached Table 4 demand cap; the chip's max capacities are fixed
        #: for a run, so compute the max once instead of per task per round.
        self._demand_cap: Optional[float] = None
        #: Per-(cluster, level) energy cost; pure in the chip's static
        #: power parameters, so cache for the life of the attachment.
        self._energy_cost_cache: Dict[Tuple[str, int], float] = {}
        #: Off-line-profile demand per (task, core type); profiles are
        #: immutable, so cache for the life of the attachment.
        self._nominal_demand_cache: Dict[Tuple[str, str], float] = {}
        #: Per-round array cache for :meth:`_demands_of_all`; invalidated
        #: by bumping ``_demand_cache_stamp`` at every out-of-band mutation
        #: of the market membership or the smoothed-demand dict.
        self._demand_vec_cache: Optional[_DemandVecCache] = None
        self._demand_cache_stamp = 0
        self._next_bid_time = 0.0
        self._round_counter = 0
        self._last_move_time: Dict[str, float] = {}
        self.last_round: Optional[RoundResult] = None
        #: (row tuple, the engine's task for each row) of the last round.
        self._grant_rows: Optional[tuple] = None
        self.moves_executed = 0
        #: Optional :class:`~repro.core.telemetry.MarketRecorder`, shown the
        #: market after every bid period that ran a round; set by its
        #: constructor.
        self.recorder = None
        #: Future-work path: learned demands instead of off-line profiles.
        self.online_estimator: Optional[OnlineDemandEstimator] = (
            OnlineDemandEstimator() if self.config.online_estimation else None
        )
        # -- resilience layer (None when config.resilience is None) -----
        res = self.config.resilience
        self.sensor_guard: Optional[StaleSensorDetector] = None
        self.dvfs_supervisor: Optional[DVFSSupervisor] = None
        self.watchdog: Optional[MarketWatchdog] = None
        self._move_retry: Optional[BackoffRetry] = None
        self._pending_moves: Dict[str, MoveDecision] = {}
        # Signature of the last completed market mirror (_sync_tasks):
        # while it matches, the mirror pass is skipped wholesale.
        self._market_sync_sig: Optional[tuple] = None
        self.safe_mode_entries = 0
        self._last_observed_power_w = 0.0
        #: Fractional power mark-up applied to the market's observations
        #: while the thermal supervisor holds a cluster at WARN or above;
        #: raises prices so bids shrink before forcible throttling.
        self.thermal_surcharge = 0.0
        if res is not None:
            self.sensor_guard = StaleSensorDetector(
                stale_reads=res.stale_reads, spike_factor=res.spike_factor
            )
            self.dvfs_supervisor = DVFSSupervisor(
                BackoffRetry(res.retry_initial_rounds, res.retry_max_rounds)
            )
            self.watchdog = MarketWatchdog(res)
            self._move_retry = BackoffRetry(
                res.retry_initial_rounds, res.retry_max_rounds
            )

    # ------------------------------------------------------------------
    # Engine hooks
    # ------------------------------------------------------------------
    def prepare(self, sim: Simulation) -> None:
        self._chip = sim.chip
        self._energy_cost_cache.clear()
        self._nominal_demand_cache.clear()
        for cluster in sim.chip.clusters:
            self.market.add_cluster(
                cluster_id=cluster.cluster_id,
                core_ids=[core.core_id for core in cluster.cores],
                supply_ladder=[
                    level.supply_pus for level in cluster.vf_table.levels
                ],
            )
        self.estimator = SteadyStateEstimator(
            self.market, self._demand_on_cluster, self._energy_cost_per_pu
        )
        self.estimator.demand_array_fn = self._demands_on_cluster_arr
        self.estimator.profile_columns_fn = self._profile_columns
        self.estimator.cross_demand_fn = self._cross_demands
        self.lbt = LBTModule(self.market, self.estimator)
        self._sync_tasks(sim)

    def on_tick(self, sim: Simulation) -> None:
        if sim.now + 1e-9 < self._next_bid_time:
            return
        rounds_run = self.market.rounds_run
        self._bid_period(sim)
        if self.recorder is not None and self.market.rounds_run > rounds_run:
            self.recorder.snapshot(sim.now)

    def _bid_period(self, sim: Simulation) -> None:
        """One bid period: a market round, then resilience and LBT."""
        self._next_bid_time = sim.now + self.config.bid_period_s
        self._sync_tasks(sim)
        if self.watchdog is not None and self.watchdog.in_safe_mode:
            self._safe_mode_round(sim)
            return
        if not self.market.tasks:
            return
        try:
            result = self._run_market_round(sim)
        except Exception:
            if self.watchdog is None:
                raise
            # A frozen/raising round: keep last allocations, count it,
            # and degrade to the safe static policy if rounds stay dead.
            if self.watchdog.record_failure("market round raised"):
                self._enter_safe_mode(sim)
            return
        self.last_round = result
        self._round_counter += 1
        if self.watchdog is not None:
            tripped = self.watchdog.record_round(
                chip_power_w=self._last_observed_power_w,
                wtdp=self.config.market.wtdp,
                prices=result.prices,
                task_ids=result.task_ids,
                supplies=result.supplies,
            )
            if tripped:
                self._enter_safe_mode(sim)
                return
        if self.dvfs_supervisor is not None:
            self.dvfs_supervisor.verify(sim, self._round_counter)
        self._retry_pending_moves(sim)
        # LBT is disabled in the emergency state: the immediate goal is to
        # bring power under the TDP through the supply-demand module.
        if result.chip_state is ChipPowerState.EMERGENCY or not self.config.lbt_enabled:
            return
        counter = self._round_counter
        cooling = frozenset(
            task_id
            for task_id, moved_at in self._last_move_time.items()
            if sim.now - moved_at < self.config.migration_cooldown_s
        )
        decision: Optional[MoveDecision] = None
        if self.config.enable_migration and counter % self.config.migrate_every == 0:
            decision = self.lbt.propose_migration(exclude_tasks=cooling)
        elif (
            self.config.enable_load_balancing
            and counter % self.config.load_balance_every == 0
        ):
            decision = self.lbt.propose_load_balance(exclude_tasks=cooling)
        if decision is not None:
            self._execute_move(sim, decision)

    def set_thermal_surcharge(self, surcharge: float) -> None:
        """Hook for the thermal supervisor's WARN rung (0 clears it)."""
        self.thermal_surcharge = max(0.0, surcharge)

    # ------------------------------------------------------------------
    # Snapshot/restore (checkpointing)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Dict[str, object]:
        """All mutable governor state (Snapshottable protocol)."""
        from ..checkpoint.snapshot import generic_snapshot

        return {
            "market": self.market.snapshot_state(),
            "smoothed_demand": dict(self._smoothed_demand),
            "next_bid_time": self._next_bid_time,
            "round_counter": self._round_counter,
            "last_move_time": dict(self._last_move_time),
            "last_round": self._round_result_to_json(self.last_round),
            "moves_executed": self.moves_executed,
            "safe_mode_entries": self.safe_mode_entries,
            "last_observed_power_w": self._last_observed_power_w,
            "thermal_surcharge": self.thermal_surcharge,
            "lbt_evaluations": self.lbt.evaluations if self.lbt is not None else 0,
            "pending_moves": {
                task_id: self._move_decision_to_json(decision)
                for task_id, decision in self._pending_moves.items()
            },
            "sensor_guard": (
                self.sensor_guard.snapshot_state() if self.sensor_guard else None
            ),
            "dvfs_supervisor": (
                self.dvfs_supervisor.snapshot_state() if self.dvfs_supervisor else None
            ),
            "watchdog": self.watchdog.snapshot_state() if self.watchdog else None,
            "move_retry": (
                self._move_retry.snapshot_state() if self._move_retry else None
            ),
            "online_estimator": (
                generic_snapshot(self.online_estimator)
                if self.online_estimator is not None
                else None
            ),
        }

    def restore_state(self, sim: Simulation, state: Dict[str, object]) -> None:
        """Apply a :meth:`snapshot_state` onto a freshly built governor."""
        from ..checkpoint.snapshot import generic_restore

        if self._chip is None:
            # Registers clusters/cores with the market and builds the
            # estimator/LBT; the market's agent state is overwritten below.
            self.prepare(sim)
        self.market.restore_state(state["market"])
        self._tasks_by_id = {
            task.name: task for task in sim.tasks if task.name in self.market.tasks
        }
        self._smoothed_demand = dict(state["smoothed_demand"])
        self._demand_cache_stamp += 1
        self._market_sync_sig = None
        self._next_bid_time = state["next_bid_time"]
        self._round_counter = state["round_counter"]
        self._last_move_time = dict(state["last_move_time"])
        self.last_round = self._round_result_from_json(state["last_round"])
        self.moves_executed = state["moves_executed"]
        self.safe_mode_entries = state["safe_mode_entries"]
        self._last_observed_power_w = state["last_observed_power_w"]
        self.thermal_surcharge = state.get("thermal_surcharge", 0.0)
        if self.lbt is not None:
            self.lbt.evaluations = state["lbt_evaluations"]
        self._pending_moves = {
            task_id: self._move_decision_from_json(decision)
            for task_id, decision in state["pending_moves"].items()
        }
        for component, cstate in (
            (self.sensor_guard, state["sensor_guard"]),
            (self.dvfs_supervisor, state["dvfs_supervisor"]),
            (self.watchdog, state["watchdog"]),
            (self._move_retry, state["move_retry"]),
        ):
            if component is not None and cstate is not None:
                component.restore_state(cstate)
        if self.online_estimator is not None and state["online_estimator"] is not None:
            generic_restore(self.online_estimator, state["online_estimator"], {})

    @staticmethod
    def _round_result_to_json(result: Optional[RoundResult]) -> Optional[dict]:
        if result is None:
            return None
        return {
            "allocations": dict(result.allocations),
            "level_requests": dict(result.level_requests),
            "chip_state": result.chip_state.value,
            "allowance": result.allowance,
            "prices": dict(result.prices),
            "frozen_clusters": sorted(result.frozen_clusters),
            "total_demand": result.total_demand,
            "total_supply": result.total_supply,
        }

    @staticmethod
    def _round_result_from_json(data: Optional[dict]) -> Optional[RoundResult]:
        if data is None:
            return None
        allocations = data["allocations"]
        return RoundResult(
            task_ids=tuple(allocations),
            supplies=array("d", allocations.values()),
            level_requests=dict(data["level_requests"]),
            chip_state=ChipPowerState(data["chip_state"]),
            allowance=data["allowance"],
            prices=dict(data["prices"]),
            frozen_clusters=set(data["frozen_clusters"]),
            total_demand=data["total_demand"],
            total_supply=data["total_supply"],
        )

    @staticmethod
    def _move_decision_to_json(decision: MoveDecision) -> dict:
        def estimate(est) -> dict:
            return {
                "ratios": dict(est.ratios),
                "bids": dict(est.bids),
                "levels": dict(est.levels),
            }

        return {
            "task_id": decision.task_id,
            "source_core_id": decision.source_core_id,
            "target_core_id": decision.target_core_id,
            "mode": decision.mode,
            "current": estimate(decision.current),
            "candidate": estimate(decision.candidate),
        }

    @staticmethod
    def _move_decision_from_json(data: dict) -> MoveDecision:
        from .estimation import MappingEstimate

        def estimate(est: dict) -> MappingEstimate:
            return MappingEstimate(
                ratios=dict(est["ratios"]),
                bids=dict(est["bids"]),
                levels=dict(est["levels"]),
            )

        return MoveDecision(
            task_id=data["task_id"],
            source_core_id=data["source_core_id"],
            target_core_id=data["target_core_id"],
            mode=data["mode"],
            current=estimate(data["current"]),
            candidate=estimate(data["candidate"]),
        )

    # ------------------------------------------------------------------
    # Market round plumbing
    # ------------------------------------------------------------------
    def _mirror_sig(self, sim: Simulation) -> tuple:
        return (
            sim.placement.version,
            len(self.market.tasks),
            self._demand_cache_stamp,
            sim.active_tasks(),
        )

    def _mirror_current(self, sim: Simulation) -> bool:
        """Whether the last mirror pass still matches the engine.

        The active tuple is compared by identity: the engine hands out a
        new one whenever the active tasks change, and ``==`` would walk it.
        """
        sig = self._market_sync_sig
        if sig is None:
            return False
        now = self._mirror_sig(sim)
        return sig[3] is now[3] and sig[:3] == now[:3]

    def _sync_tasks(self, sim: Simulation) -> None:
        """Mirror the engine's task population and placement in the market.

        Every membership or placement change that could desynchronise the
        mirror moves one of the signature components: arrivals/retires
        and migrations bump ``placement.version``, every change of the
        active tasks (an addition, a start or an end) hands out a new
        active tuple (a task placed before its start joins when it
        starts), market membership edits move ``len(market.tasks)``, and
        out-of-band market mutations bump ``_demand_cache_stamp``.  A
        matching signature therefore means a full pass would be a no-op.
        """
        if self._mirror_current(sim):
            return
        active = {task.name: task for task in sim.active_tasks()}
        for task_id in list(self.market.tasks):
            if task_id not in active:
                self.market.remove_task(task_id)
                task = self._tasks_by_id.pop(task_id, None)
                if task is not None:
                    sim.clear_allocation(task)
                self._smoothed_demand.pop(task_id, None)
                self._last_move_time.pop(task_id, None)
                self._demand_cache_stamp += 1
        for task_id, task in active.items():
            core = sim.placement.core_of(task)
            if core is None:
                continue
            if task_id not in self.market.tasks:
                self.market.add_task(task_id, task.priority, core.core_id)
                self._tasks_by_id[task_id] = task
                self._demand_cache_stamp += 1
            elif self.market.core_of(task_id) != core.core_id:
                self.market.move_task(task_id, core.core_id)
        # Recomputed after the pass: the body itself moves the counters.
        self._market_sync_sig = self._mirror_sig(sim)

    def _demands_of_all(self, sim: Simulation) -> Dict[str, float]:
        """Table 4 demand conversion for every market task.

        Above the vectorization threshold the per-task formula runs as
        elementwise array arithmetic -- bit-identical to ``_demand_of``
        (every operation maps 1:1 onto the scalar expression) -- with the
        observation gather served straight from the columnar engine's
        buffers when available.
        """
        tasks_by_id = self._tasks_by_id
        if len(tasks_by_id) < VEC_MIN_TASKS:
            # Scalar path reads Task attributes: observation barrier.
            sim.sync()
            return {
                task_id: self._demand_of(sim, task)
                for task_id, task in tasks_by_id.items()
            }

        cache = self._demand_vec_cache
        if cache is None or cache.stamp != self._demand_cache_stamp:
            cache = self._demand_vec_cache = _DemandVecCache(self._demand_cache_stamp)
            cache.ids = list(tasks_by_id)
            cache.tasks = list(tasks_by_id.values())
            cache.target = np.asarray([t.hr_range.target_hr for t in cache.tasks])
        ids = cache.ids
        tasks = cache.tasks
        target = cache.target
        gather = getattr(sim, "gather_demand_inputs", None)
        gathered = gather(tasks) if gather is not None else None
        if gathered is not None:
            hr, consumed, supplied = gathered
        else:
            sim.sync()  # attribute reads below: observation barrier
            hr = np.asarray([t.observed_heart_rate() for t in tasks])
            consumed = np.asarray([t.last_consumed_pus for t in tasks])
            supplied = np.asarray([t.last_supply_pus for t in tasks])
        cap = self._demand_cap
        if cap is None:
            cap = self.config.market.demand_cap_factor * max(
                cluster.max_supply_pus for cluster in sim.chip.clusters
            )
            self._demand_cap = cap

        # ``last_consumed or last_supply``: consumed wins unless zero.
        supply = np.where(consumed != 0.0, consumed, supplied)
        usable = (hr > 0.0) & (supply > 0.0)
        demand = target * supply / np.where(usable, hr, 1.0)
        # The off-line-profile fallback, on each task's current core type,
        # only for the rows without a usable observation.
        fallback_rows = np.flatnonzero(~usable).tolist()
        if fallback_rows:
            demand[fallback_rows] = [
                self._nominal_demand_here(sim, tasks[i]) for i in fallback_rows
            ]
        demand = demand * self.config.market.demand_headroom
        demand = np.minimum(np.maximum(demand, 1.0), cap)

        smoothed = self._smoothed_demand
        if cache.prev is not None:
            # Every id was written by the previous round and nothing
            # mutated the dict out-of-band since (the stamp check above).
            prev = cache.prev
            has_prev = None
        else:
            prev = np.asarray([smoothed.get(tid, -1.0) for tid in ids])
            has_prev = np.asarray([tid in smoothed for tid in ids])
        rise = 0.4 * prev + 0.6 * demand
        fall = 0.75 * prev + 0.25 * demand
        adjusted = np.where(
            demand > prev,
            rise,
            np.where(prev - demand < 0.04 * prev, prev, fall),
        )
        demand = adjusted if has_prev is None else np.where(has_prev, adjusted, demand)
        cache.prev = demand
        values = demand.tolist()
        smoothed.update(zip(ids, values))
        return dict(zip(ids, values))

    def _nominal_demand_here(self, sim: Simulation, task: Task) -> float:
        """Off-line-profile fallback demand on the task's current core type."""
        core = sim.placement.core_of(task)
        assert core is not None
        core_type = core.cluster.core_type
        key = (task.name, core_type)
        cached = self._nominal_demand_cache.get(key)
        if cached is None:
            cached = task.profile.nominal_demand_pus(core_type)
            self._nominal_demand_cache[key] = cached
        return cached

    def _demand_of(self, sim: Simulation, task: Task) -> float:
        """Table 4 conversion with off-line-profile bootstrap and smoothing."""
        core = sim.placement.core_of(task)
        assert core is not None
        core_type = core.cluster.core_type
        fallback = task.profile.nominal_demand_pus(core_type)
        supply = task.last_consumed_pus or task.last_supply_pus
        demand = demand_for_range(
            task.hr_range, supply, task.observed_heart_rate(), fallback_pus=fallback
        )
        demand *= self.config.market.demand_headroom
        cap = self._demand_cap
        if cap is None:
            cap = self.config.market.demand_cap_factor * max(
                cluster.max_supply_pus for cluster in sim.chip.clusters
            )
            self._demand_cap = cap
        demand = min(max(demand, 1.0), cap)
        previous = self._smoothed_demand.get(task.name)
        if previous is not None:
            # Asymmetric EWMA with a small deadband: follow demand rises
            # quickly (a lagging supply is a QoS miss) but damp falls and
            # jitter, which otherwise cause V-F hunting (the thermal-
            # cycling concern of section 3.2.2).
            if demand > previous:
                demand = 0.4 * previous + 0.6 * demand
            elif previous - demand < 0.04 * previous:
                # Deadband on the *raw* change -- applying it after the
                # EWMA would freeze any slow decline permanently.
                demand = previous
            else:
                demand = 0.75 * previous + 0.25 * demand
        self._smoothed_demand[task.name] = demand
        return demand

    def _observe_power(self, sim: Simulation) -> SensorSample:
        """Read the power sensors, surviving dropouts and bad readings.

        Uses the engine's last sample (already dropout-substituted), pulls
        a fresh reading before the first tick, and -- with resilience on
        -- validates it through the stale-sensor detector so stuck or
        spiking registers trade on the last good value instead.

        With ``use_estimated_power`` off the market is pinned to the
        metered sensor even when an estimation pipeline is attached --
        the ablation arm of the model-error experiments.
        """
        if self.config.use_estimated_power:
            sample = sim.last_power_sample()
        else:
            sample = sim.metered_power_sample()
        if sample is None:
            try:
                sample = sim.sensor.sample()
            except SensorReadError:
                sample = None
        if self.sensor_guard is not None:
            return self.sensor_guard.observe(sample)
        if sample is None:
            # Resilience disabled: fall back to an all-zero reading
            # rather than crashing the bid round before the first tick.
            return SensorSample(
                chip_power_w=0.0,
                cluster_power_w={
                    c.cluster_id: 0.0 for c in sim.chip.clusters
                },
                cluster_frequency_mhz={
                    c.cluster_id: c.frequency_mhz for c in sim.chip.clusters
                },
                cluster_voltage_v={c.cluster_id: 0.0 for c in sim.chip.clusters},
            )
        return sample

    def _run_market_round(self, sim: Simulation) -> RoundResult:
        sample = self._observe_power(sim)
        self._last_observed_power_w = sample.chip_power_w
        demands = self._demands_of_all(sim)
        if self.online_estimator is not None:
            for task_id, demand in demands.items():
                task = self._tasks_by_id[task_id]
                core = sim.placement.core_of(task)
                if core is not None:
                    self.online_estimator.observe(
                        task_id, core.cluster.core_type, demand
                    )
        # Thermal surcharge: inflate the power the market trades on (the
        # chip agent shrinks the allowance, raising prices chip-wide).
        # ``_last_observed_power_w`` above stays raw so the watchdog's
        # divergence detection is not fooled by the synthetic mark-up.
        scale = 1.0 + self.thermal_surcharge
        obs = MarketObservations(
            demands=demands,
            cluster_level={
                c.cluster_id: c.level_index for c in sim.chip.clusters
            },
            cluster_in_transition={
                c.cluster_id: c.regulator.in_transition for c in sim.chip.clusters
            },
            chip_power_w=sample.chip_power_w * scale,
            cluster_power_w={
                cid: watts * scale
                for cid, watts in sample.cluster_power_w.items()
            },
        )
        result = self.market.run_round(obs)
        rows = self._grant_rows
        if rows is None or rows[0] is not result.task_ids:
            # Mapped once per row tuple: ``_tasks_by_id`` changes only
            # with the market's membership, which hands out a new one.
            tasks = tuple(map(self._tasks_by_id.__getitem__, result.task_ids))
            rows = self._grant_rows = (result.task_ids, tasks)
        sim.set_allocations(rows[1], result.supplies)
        for cluster_id, level in result.level_requests.items():
            cluster = sim.chip.cluster(cluster_id)
            if self.dvfs_supervisor is not None:
                self.dvfs_supervisor.request(sim, cluster, level)
            else:
                sim.request_level(cluster, level)
        return result

    # ------------------------------------------------------------------
    # LBT plumbing
    # ------------------------------------------------------------------
    def _demand_on_cluster(self, task_id: str, cluster_id: str) -> float:
        """Steady-state demand of a task on a (possibly different) cluster.

        On the task's current cluster this is the live market demand; on a
        different core type it falls back to the off-line profile (the
        paper obtains the same numbers by profiling on the board).
        """
        task = self._tasks_by_id.get(task_id)
        agent = self.market.tasks.get(task_id)
        if task is None or agent is None:
            return 0.0
        current_cluster = self.market.cores[self.market.core_of(task_id)].cluster_id
        if cluster_id == current_cluster:
            return agent.demand
        if self.online_estimator is not None:
            assert self._chip is not None
            target = self._chip.cluster(cluster_id)
            current = self._chip.cluster(current_cluster)
            return self.online_estimator.estimate_demand(
                task_id,
                target_type=target.core_type,
                current_type=current.core_type,
                current_demand_pus=agent.demand,
                target_is_faster=target.max_supply_pus > current.max_supply_pus,
            )
        try:
            nominal = task.profile.nominal_demand_pus(
                self._core_type_of_cluster(cluster_id)
            )
            nominal_here = task.profile.nominal_demand_pus(
                self._core_type_of_cluster(current_cluster)
            )
        except KeyError:
            return agent.demand
        if nominal_here <= 0.0:
            return nominal
        # Scale the profiled cross-type ratio by the live demand so phase
        # behaviour carries over to the speculation.
        return agent.demand * nominal / nominal_here

    def _demands_on_cluster_arr(self, task_ids: List[str], cluster_id: str):
        """Vectorized :meth:`_demand_on_cluster` over a resident roster.

        Every task of the cluster's roster is on it already, so its demand
        there is its live market demand.  Returns ``None`` for any other
        roster, and under online estimation, where the caller falls back
        to the scalar lookup.
        """
        if self.online_estimator is not None:
            return None
        market = self.market
        if task_ids != market.cluster_roster(cluster_id):
            return None
        agents = market.tasks
        tasks_by_id = self._tasks_by_id
        return np.asarray(
            [agents[tid].demand if tid in tasks_by_id else 0.0 for tid in task_ids]
        )

    def _profile_columns(self, task_ids: List[str]):
        """Each task's off-line-profile demand on each cluster's core type.

        One row per task, one column per market cluster, NaN where the
        profile has no entry (the scalar lookup's ``KeyError``) or the
        task is unknown.  Profiles are immutable, so the LBT sweep keeps
        these rows beside its rosters.  ``None`` under online estimation.
        """
        if self.online_estimator is not None:
            return None
        core_types = [self._core_type_of_cluster(cid) for cid in self.market.clusters]
        rows = np.full((len(task_ids), len(core_types)), np.nan)
        for i, tid in enumerate(task_ids):
            task = self._tasks_by_id.get(tid)
            if task is None:
                continue
            for k, core_type in enumerate(core_types):
                try:
                    rows[i, k] = task.profile.nominal_demand_pus(core_type)
                except KeyError:
                    pass
        return rows

    def _cross_demands(self, demands, rows, src_cluster: str, dst_cluster: str):
        """Vectorized :meth:`_demand_on_cluster` of tasks leaving ``src_cluster``.

        ``demands`` are the tasks' live demands on ``src_cluster`` and
        ``rows`` their :meth:`_profile_columns`.  Every element is the
        scalar expression: the profile-scaled ``(demand * nominal) /
        nominal_here``, ``nominal`` where ``nominal_here <= 0``, and the
        live demand where the profile has no entry.
        """
        clusters = list(self.market.clusters)
        nominal = rows[:, clusters.index(dst_cluster)]
        here = rows[:, clusters.index(src_cluster)]
        use_plain = np.isnan(nominal) | np.isnan(here)
        use_nominal = ~use_plain & (here <= 0.0)
        out = (demands * nominal) / np.where(use_plain | use_nominal, 1.0, here)
        out = np.where(use_nominal, nominal, out)
        return np.where(use_plain, demands, out)

    def _core_type_of_cluster(self, cluster_id: str) -> str:
        assert self._chip is not None, "prepare() must run before LBT"
        return self._chip.cluster(cluster_id).core_type

    def _energy_cost_per_pu(self, cluster_id: str, level_index: int) -> float:
        """Watts per PU of a fully loaded cluster at ``level_index``.

        Drives the estimator's energy-aware pricing; computed from the
        same power model the sensors read (the paper's off-line profiling
        provides the equivalent per-core-type power numbers).
        """
        assert self._chip is not None
        key = (cluster_id, level_index)
        cached = self._energy_cost_cache.get(key)
        if cached is not None:
            return cached
        cluster = self._chip.cluster(cluster_id)
        table = cluster.vf_table
        level = table[table.clamp_index(level_index)]
        watts = self._chip.power_model.max_cluster_power_w(
            cluster.power_params, level, len(cluster.cores)
        )
        total_pus = level.supply_pus * len(cluster.cores)
        cost = watts / total_pus if total_pus > 0.0 else 0.0
        self._energy_cost_cache[key] = cost
        return cost

    def _execute_move(self, sim: Simulation, decision: MoveDecision) -> None:
        task = self._tasks_by_id.get(decision.task_id)
        if task is None:
            return
        destination = sim.chip.core(decision.target_core_id)
        current = sim.placement.core_of(task)
        if current is destination:
            self._pending_moves.pop(decision.task_id, None)
            return
        crossed_types = current is None or (
            current.cluster.core_type != destination.cluster.core_type
        )
        # Estimate the demand on the destination before the market's view
        # of the placement changes.
        seeded = self._demand_on_cluster(
            decision.task_id, destination.cluster.cluster_id
        )
        mirrored = self._mirror_current(sim)
        record = sim.migrate(task, destination)
        if record.failed:
            # sched_setaffinity failed: the task did not move.  Remember
            # the decision and re-issue it with exponential backoff.
            if self._move_retry is not None:
                if decision.current is None:
                    # A batched sweep keeps no estimates.  Nothing has
                    # changed the market since the proposal, so these are
                    # the ones the move was decided on.
                    decision.current, decision.candidate = (
                        self.estimator.evaluate_move(
                            decision.task_id, decision.target_core_id
                        )
                    )
                self._pending_moves[decision.task_id] = decision
                self._move_retry.record_failure(
                    decision.task_id, self._round_counter
                )
            return
        self._pending_moves.pop(decision.task_id, None)
        if self._move_retry is not None:
            self._move_retry.record_success(decision.task_id)
        self.market.move_task(decision.task_id, decision.target_core_id)
        if mirrored:
            # The market moved with the task, so the mirror still holds
            # (as Simulation.migrate keeps the settled mark).
            self._market_sync_sig = self._mirror_sig(sim)
        self._last_move_time[decision.task_id] = sim.now
        self.moves_executed += 1
        if crossed_types and seeded > 0.0:
            # The heart-rate window now mixes observations from two core
            # types; restart it and seed the demand from the estimate the
            # move was decided on, so the next rounds trade on consistent
            # numbers instead of a transient.
            task.hrm.reset()
            agent = self.market.tasks.get(decision.task_id)
            if agent is not None:
                agent.demand = seeded
            self._smoothed_demand[decision.task_id] = seeded
            cache = self._demand_vec_cache
            if (
                cache is not None
                and cache.stamp == self._demand_cache_stamp
                and cache.prev is not None
            ):
                cache.prev[cache.ids.index(decision.task_id)] = seeded

    # ------------------------------------------------------------------
    # Resilience: migration retry and safe-mode degradation
    # ------------------------------------------------------------------
    def _retry_pending_moves(self, sim: Simulation) -> None:
        """Re-issue failed migrations whose backoff has elapsed."""
        if not self._pending_moves or self._move_retry is None:
            return
        for task_id, decision in list(self._pending_moves.items()):
            if task_id not in self.market.tasks:
                self._pending_moves.pop(task_id, None)
                self._move_retry.record_success(task_id)
                continue
            if not self._move_retry.should_attempt(task_id, self._round_counter):
                continue
            self._execute_move(sim, decision)

    @property
    def in_safe_mode(self) -> bool:
        return self.watchdog is not None and self.watchdog.in_safe_mode

    def _safe_level_for(self, cluster) -> int:
        assert self.config.resilience is not None
        return cluster.vf_table.clamp_index(self.config.resilience.safe_level_index)

    def _enter_safe_mode(self, sim: Simulation) -> None:
        """Degrade to a safe static policy: fair shares at the safe level.

        Explicit allocations are dropped (the dispatcher falls back to
        fair weighted sharing) and every online cluster is parked at the
        configured safe V-F level -- a powersave-like floor that cannot
        violate the TDP -- until the watchdog observes sustained health.
        """
        self.safe_mode_entries += 1
        self._pending_moves.clear()
        sim.clear_allocations()
        for cluster in sim.chip.clusters:
            if cluster.cluster_id in sim.offline_clusters:
                continue
            if self.dvfs_supervisor is not None:
                self.dvfs_supervisor.request(
                    sim, cluster, self._safe_level_for(cluster)
                )
            else:
                sim.request_level(cluster, self._safe_level_for(cluster))

    def _safe_mode_round(self, sim: Simulation) -> None:
        """One bid period spent degraded: hold the floor, watch for health."""
        assert self.watchdog is not None
        self._round_counter += 1
        for cluster in sim.chip.clusters:
            if cluster.cluster_id in sim.offline_clusters:
                continue
            safe = self._safe_level_for(cluster)
            if cluster.regulator.target_index != safe:
                sim.request_level(cluster, safe)
        if self.dvfs_supervisor is not None:
            self.dvfs_supervisor.verify(sim, self._round_counter)
        sample = self._observe_power(sim)
        self._last_observed_power_w = sample.chip_power_w
        wtdp = self.config.market.wtdp
        healthy = wtdp is None or sample.chip_power_w <= wtdp
        self.watchdog.record_safe_round(healthy)
