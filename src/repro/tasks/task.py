"""The task model: a prioritised computational entity with QoS goals.

A task (paper section 2) is the unit of scheduling: it runs on exactly one
core at a time, carries a user-assigned priority ``r_t`` (higher is more
important), and expresses its performance through heartbeats.  The task
object here is pure workload state -- placement is owned by the simulator
and market state by the task's agent.
"""

from __future__ import annotations

import itertools
from typing import Optional

from .heartbeats import HeartRateMonitor, HeartRateRange
from .profiles import BenchmarkProfile

_task_counter = itertools.count(1)


class Task:
    """A running instance of a benchmark with a priority and QoS range.

    Attributes:
        name: Unique task name (defaults to ``<profile label>#<n>``).
        profile: The benchmark/input definition driving cost and phases.
        priority: User priority ``r_t`` (positive integer, higher = more
            important).
        start_time: Simulation time at which the task becomes active.
        duration: Active lifetime in seconds (``None`` = runs forever).

    Set ``start_time`` and ``duration`` before the task joins a
    simulation; ``Simulation.end_task`` ends a task early.
    """

    def __init__(
        self,
        profile: BenchmarkProfile,
        priority: int = 1,
        name: Optional[str] = None,
        start_time: float = 0.0,
        duration: Optional[float] = None,
        hrm_window_s: float = 0.5,
    ):
        if priority < 1:
            raise ValueError("priority must be a positive integer")
        self.profile = profile
        self.priority = priority
        self.name = name or f"{profile.label}#{next(_task_counter)}"
        self.start_time = start_time
        self.duration = duration
        self.hrm = HeartRateMonitor(window_s=hrm_window_s)
        #: Cumulative heartbeats emitted so far.
        self.total_beats: float = 0.0
        #: Cumulative PU-seconds of work consumed.
        self.total_work_pu_s: float = 0.0
        #: Supply (PUs) delivered in the most recent tick; written by the
        #: simulator so governors can convert heart rate to demand.
        self.last_supply_pus: float = 0.0
        #: PUs actually consumed in the most recent tick (<= granted when
        #: the task is input-bound).
        self.last_consumed_pus: float = 0.0
        #: Simulation time until which the task is frozen by an in-flight
        #: migration (receives no supply).
        self.frozen_until: float = 0.0
        #: Number of migrations this task has undergone.
        self.migrations: int = 0

    # -- identity & QoS -----------------------------------------------------------
    @property
    def hr_range(self) -> HeartRateRange:
        return self.profile.hr_range

    @property
    def target_hr(self) -> float:
        return self.profile.hr_range.target_hr

    def is_active(self, t: float) -> bool:
        """Whether the task exists in the system at time ``t``."""
        if t < self.start_time:
            return False
        if self.duration is not None and t >= self.start_time + self.duration:
            return False
        return True

    def local_time(self, t: float) -> float:
        """Time since the task started (drives its phase trace)."""
        return max(0.0, t - self.start_time)

    # -- cost / demand ------------------------------------------------------------
    def phase_multiplier(self, t: float) -> float:
        return self.profile.phases.multiplier_at(self.local_time(t))

    def cost_pu_s_per_beat(self, core_type: str, t: float) -> float:
        """Current per-heartbeat cost on ``core_type`` at time ``t``."""
        return self.profile.cost_pu_s_per_beat(core_type, self.phase_multiplier(t))

    def true_demand_pus(self, core_type: str, t: float) -> float:
        """Ground-truth demand: PUs needed now to hit the target rate.

        The simulator and the metrics use this; governors must infer the
        same quantity from observed heart rates (Table 4 conversion).
        """
        return self.target_hr * self.cost_pu_s_per_beat(core_type, t)

    def observed_heart_rate(self) -> float:
        return self.hrm.heart_rate()

    # -- execution ----------------------------------------------------------------
    def consume(self, granted_pus: float, core_type: str, t: float, dt: float) -> float:
        """Run for one tick with ``granted_pus`` of supply.

        The task converts PU-seconds into heartbeats at its current
        per-beat cost.  Input-bound tasks cannot run arbitrarily far ahead:
        consumption is capped at ``work_limit_factor`` times the current
        demand.  Returns the PUs actually consumed (defines utilisation).
        """
        if granted_pus < 0 or dt <= 0:
            raise ValueError("granted supply must be >= 0 and dt > 0")
        cost = self.cost_pu_s_per_beat(core_type, t)
        demand = self.target_hr * cost
        consumable = granted_pus
        limit = self.profile.work_limit_factor
        if limit is not None:
            consumable = min(consumable, limit * demand)
        beats = consumable * dt / cost
        self.total_beats += beats
        self.total_work_pu_s += consumable * dt
        self.last_supply_pus = granted_pus
        self.last_consumed_pus = consumable
        self.hrm.record(t + dt, self.total_beats)
        return consumable

    def idle_tick(self, t: float, dt: float) -> None:
        """Advance the HRM with zero progress (no supply this tick)."""
        self.last_supply_pus = 0.0
        self.last_consumed_pus = 0.0
        self.hrm.record(t + dt, self.total_beats)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Task({self.name}, prio={self.priority})"
