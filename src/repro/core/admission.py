"""Market-based admission control: graceful degradation under overload.

The PPM market clears whatever task set it is given; nothing in the
paper stops an open-ended arrival stream from offering more demand than
the chip can sell power to.  This module adds the missing protection: a
controller that *prices* incoming tasks against current supply and
thermal headroom and walks a graduated degradation ladder mirroring the
thermal supervisor's:

    OPEN -> DEGRADED -> QUEUE -> SHED -> REJECT

* **open** -- every arrival is admitted at full QoS.
* **degraded** -- arrivals that cannot afford the scarcity premium are
  admitted at a reduced QoS target (their heart-rate range scaled by
  ``degraded_qos_factor``), so the market sells them less supply.
* **queue** -- unaffordable arrivals wait in a bounded FIFO queue with a
  timeout (bounded backpressure); affordable ones still enter degraded.
* **shed** -- additionally, the lowest-priority already-admitted
  stream tasks are terminated, ``sheds_per_check`` per evaluation.
* **reject** -- new arrivals are refused outright; the queue drains
  only by timeout.

The *pressure* signal is the ratio of priced demand (active tasks at
their placed core type, plus the queue) to sellable supply (online
clusters at their thermal-ceiling-capped top level), inflated by
``thermal_surcharge`` while the thermal ladder sits at WARN or above --
the admission analogue of the chip agent's price surcharge.  The
scarcity premium ``max(pressure - 1, 0)`` is the unit price an arrival
must afford; a task's budget grows with its user priority ``r_t``
exactly like the paper's allowance distribution, so high-priority
requests keep full QoS deepest into an overload.

The rungs are a :class:`~repro.core.ladder.Ladder`, like the thermal
ladder's: transitions move at most one rung per ``check_period_s`` and
step down only once pressure has fallen ``hysteresis`` below the
current rung's entry threshold, so the ladder cannot chatter.  All
state is snapshot/restorable so checkpoint/resume and replay stay
bit-exact through a flash crowd.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from enum import Enum
from typing import Dict, List, Optional, Set, Tuple

from ..tasks.arrivals import ArrivalRecord, ArrivalStream
from .ladder import Ladder


class AdmissionState(Enum):
    """Rung on the admission degradation ladder, calmest first."""

    OPEN = "open"
    DEGRADED = "degraded"
    QUEUE = "queue"
    SHED = "shed"
    REJECT = "reject"


@dataclass(frozen=True)
class AdmissionConfig:
    """Tuning of the admission ladder.

    Attributes:
        check_period_s: How often the ladder is evaluated; each
            evaluation moves at most one rung.
        degrade_at / queue_at / shed_at / reject_at: Ascending pressure
            entry thresholds of the four defensive rungs (pressure 1.0
            means offered demand exactly matches sellable supply).
        hysteresis: Pressure must fall this far below the current rung's
            entry threshold before the ladder steps back down.
        queue_capacity: Bounded backpressure -- arrivals beyond this
            queue depth are rejected (overflow).
        queue_timeout_s: Queued arrivals older than this are dropped.
        drain_per_check: Queue entries admitted per evaluation once the
            ladder has descended back to DEGRADED or OPEN.
        degraded_qos_factor: Heart-rate-range scale of degraded admits.
        budget_per_priority: Scarcity premium one unit of task priority
            can afford; priority ``r_t`` affords ``r_t * this``.
        sheds_per_check: Admitted stream tasks terminated per evaluation
            while at the SHED rung or above.
        thermal_surcharge: Pressure inflation while the thermal
            supervisor reports WARN or hotter (mirrors the chip agent's
            warn surcharge).
        estimation_surcharge: Pressure inflation while the estimator
            supervisor reports a degraded power signal (MARGIN or
            FALLBACK) -- with the power estimate suspect, admitting at
            the margin risks an unseen TDP overshoot, so arrivals pay a
            scarcity premium until the estimator recovers.
    """

    check_period_s: float = 0.25
    degrade_at: float = 0.85
    queue_at: float = 1.0
    shed_at: float = 1.2
    reject_at: float = 1.4
    hysteresis: float = 0.1
    queue_capacity: int = 32
    queue_timeout_s: float = 3.0
    drain_per_check: int = 2
    degraded_qos_factor: float = 0.7
    budget_per_priority: float = 0.25
    sheds_per_check: int = 2
    thermal_surcharge: float = 0.25
    estimation_surcharge: float = 0.25

    def __post_init__(self) -> None:
        if self.check_period_s <= 0:
            raise ValueError("check period must be positive")
        if not self.degrade_at < self.queue_at < self.shed_at < self.reject_at:
            raise ValueError(
                "thresholds must ascend: degrade < queue < shed < reject"
            )
        if self.hysteresis <= 0:
            raise ValueError("hysteresis must be positive")
        if self.queue_capacity < 1:
            raise ValueError("queue capacity must be positive")
        if self.queue_timeout_s <= 0:
            raise ValueError("queue timeout must be positive")
        if self.drain_per_check < 1:
            raise ValueError("drain_per_check must be positive")
        if not 0.0 < self.degraded_qos_factor <= 1.0:
            raise ValueError("degraded_qos_factor must be in (0, 1]")
        if self.budget_per_priority < 0:
            raise ValueError("budget_per_priority must be non-negative")
        if self.sheds_per_check < 1:
            raise ValueError("sheds_per_check must be positive")
        if self.thermal_surcharge < 0:
            raise ValueError("thermal_surcharge must be non-negative")
        if self.estimation_surcharge < 0:
            raise ValueError("estimation_surcharge must be non-negative")


class AdmissionController:
    """The graduated admission ladder (see module docstring).

    Pure policy: it never touches the engine except through the
    ``sim`` handle passed into :meth:`process`, and its ladder mechanics
    (:meth:`evaluate_ladder`) are a function of the pressure signal
    alone, which is what the hysteresis property tests drive directly.
    """

    def __init__(self, config: Optional[AdmissionConfig] = None):
        self.config = config or AdmissionConfig()
        entry = {
            AdmissionState.DEGRADED: self.config.degrade_at,
            AdmissionState.QUEUE: self.config.queue_at,
            AdmissionState.SHED: self.config.shed_at,
            AdmissionState.REJECT: self.config.reject_at,
        }
        self._ladder = Ladder(AdmissionState, entry, self.config.hysteresis)
        self._next_check_s = 0.0
        #: FIFO of ``(record, enqueued_s)`` awaiting admission.
        self._queue: List[Tuple[ArrivalRecord, float]] = []
        self.last_pressure = 0.0
        # -- counters (all snapshot/restored) --
        self.offered = 0
        self.admitted = 0
        self.admitted_degraded = 0
        self.queued = 0
        self.queue_timeouts = 0
        self.shed_tasks = 0
        self.rejected = 0
        self.peak_queue_depth = 0
        #: Seconds from arrival to admission, one entry per admitted task.
        self.admission_latencies: List[float] = []
        #: Names of admitted tasks later shed (commitment withdrawn).
        self.shed_names: List[str] = []
        #: ``(time_s, from_state, to_state, pressure)`` per transition.
        self.transitions: List[tuple] = []
        #: Telemetry: ``(time_s, pressure, state, queue_depth)`` per check.
        self.samples: List[tuple] = []

    # -- queries -----------------------------------------------------------------
    @property
    def state(self) -> AdmissionState:
        return self._ladder.rung

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def identity(self) -> Dict[str, object]:
        return asdict(self.config)

    def stats(self) -> Dict[str, int]:
        return {
            "offered": self.offered,
            "admitted": self.admitted,
            "admitted_degraded": self.admitted_degraded,
            "queued": self.queued,
            "queue_timeouts": self.queue_timeouts,
            "shed_tasks": self.shed_tasks,
            "rejected": self.rejected,
            "peak_queue_depth": self.peak_queue_depth,
            "queue_depth": self.queue_depth,
            "transitions": len(self.transitions),
        }

    # -- pricing -----------------------------------------------------------------
    def pressure(self, sim) -> float:
        """Priced *active* demand over sellable supply, thermally inflated.

        Supply counts every online (not hot-unplugged) cluster at its
        top V-F level, capped by any active thermal ceiling -- the most
        the market could sell right now.  Demand prices every active
        task at its placed core type's nominal demand (A7 for unplaced
        tasks).  Queued work is deliberately *excluded*: its
        backpressure is already bounded by capacity and timeout, and
        counting it would keep the ladder shedding live tasks to make
        room for queue entries that largely time out -- the signal must
        track what is actually competing for supply.
        """
        supply = 0.0
        for cluster in sim.online_clusters():
            index = cluster.vf_table.max_index
            ceiling = sim.level_ceiling_of(cluster.cluster_id)
            if ceiling is not None:
                index = min(index, ceiling)
            supply += cluster.vf_table[index].supply_pus * len(cluster.cores)
        demand = 0.0
        for task in sim.active_tasks():
            core = sim.placement.core_of(task)
            core_type = core.cluster.core_type if core is not None else "A7"
            demand += task.profile.nominal_demand_pus(core_type)
        if supply <= 0.0:
            return self.config.reject_at if demand > 0 else 0.0
        pressure = demand / supply
        supervisor = getattr(sim, "thermal_supervisor", None)
        if supervisor is not None and supervisor.hot:
            pressure *= 1.0 + self.config.thermal_surcharge
        estimation = getattr(sim, "estimation", None)
        if estimation is not None and estimation.degraded:
            # Estimated-power analogue of the thermal surcharge: a
            # suspect power signal means the supply side of the ratio
            # is less trustworthy than it looks.
            pressure *= 1.0 + self.config.estimation_surcharge
        return pressure

    def unit_price(self) -> float:
        """Scarcity premium at the last evaluated pressure."""
        return max(self.last_pressure - 1.0, 0.0)

    def _affords(self, record: ArrivalRecord) -> bool:
        """Whether ``record`` can pay the premium at its priority's budget."""
        return self.unit_price() <= record.priority * self.config.budget_per_priority

    # -- ladder mechanics --------------------------------------------------------
    def evaluate_ladder(self, now_s: float, pressure: float) -> AdmissionState:
        """Move at most one rung for this pressure observation.

        Exposed separately from :meth:`process` so property tests can
        drive arbitrary pressure sequences through the exact transition
        logic the simulation uses.
        """
        self.last_pressure = pressure
        move = self._ladder.observe(pressure)
        if move is not None:
            old, new = move
            self.transitions.append((now_s, old.value, new.value, pressure))
        return self.state

    # -- queue -------------------------------------------------------------------
    def _expire_queue(self, now_s: float) -> None:
        keep: List[Tuple[ArrivalRecord, float]] = []
        for record, enqueued_s in self._queue:
            if now_s - enqueued_s >= self.config.queue_timeout_s:
                self.queue_timeouts += 1
            else:
                keep.append((record, enqueued_s))
        self._queue = keep

    def _drain_queue(self, sim, manager) -> None:
        if self._ladder.at_least(AdmissionState.QUEUE):
            return
        for _ in range(min(self.config.drain_per_check, len(self._queue))):
            record, _enqueued = self._queue.pop(0)
            self._admit(sim, manager, record, degraded=True)

    def _enqueue(self, record: ArrivalRecord, now_s: float) -> None:
        if len(self._queue) >= self.config.queue_capacity:
            self.rejected += 1  # overflow: bounded backpressure
            return
        self._queue.append((record, now_s))
        self.queued += 1
        self.peak_queue_depth = max(self.peak_queue_depth, len(self._queue))

    # -- shedding ----------------------------------------------------------------
    def _shed(self, sim, manager) -> None:
        """Terminate the lowest-priority admitted stream tasks, newest first.

        The candidates are the engine's active tasks that the stream
        spawned, so a call costs the live tasks, not the stream's history.
        Task names are unique, so the sort key is a total order.
        """
        spawned = manager.spawned_set
        candidates = [task for task in sim.active_tasks() if task in spawned]
        candidates.sort(key=lambda t: (t.priority, -t.start_time, t.name))
        for task in candidates[: self.config.sheds_per_check]:
            sim.end_task(task)
            self.shed_tasks += 1
            self.shed_names.append(task.name)

    # -- admission ---------------------------------------------------------------
    def _admit(self, sim, manager, record: ArrivalRecord, degraded: bool) -> None:
        qos = self.config.degraded_qos_factor if degraded else 1.0
        manager.spawn(sim, record, qos_factor=qos)
        self.admitted += 1
        if degraded:
            self.admitted_degraded += 1
        self.admission_latencies.append(sim.now - record.arrival_s)

    def _route(self, sim, manager, record: ArrivalRecord) -> None:
        state = self.state
        if state is AdmissionState.OPEN:
            self._admit(sim, manager, record, degraded=False)
        elif state is AdmissionState.DEGRADED:
            self._admit(sim, manager, record, degraded=not self._affords(record))
        elif state is AdmissionState.QUEUE:
            if self._affords(record):
                self._admit(sim, manager, record, degraded=True)
            else:
                self._enqueue(record, sim.now)
        elif state is AdmissionState.SHED:
            self._enqueue(record, sim.now)
        else:  # REJECT
            self.rejected += 1

    # -- per-tick entry point ----------------------------------------------------
    def process(self, sim, manager, records: List[ArrivalRecord]) -> None:
        """One tick: evaluate the ladder (at most once per check period),
        maintain the queue, shed if called for, and route new arrivals."""
        now = sim.now
        if now >= self._next_check_s:
            self._next_check_s = now + self.config.check_period_s
            pressure = self.pressure(sim)
            self.evaluate_ladder(now, pressure)
            self._expire_queue(now)
            self._drain_queue(sim, manager)
            if self._ladder.at_least(AdmissionState.SHED):
                self._shed(sim, manager)
            self.samples.append(
                (now, pressure, self.state.value, len(self._queue))
            )
        for record in records:
            self.offered += 1
            self._route(sim, manager, record)

    # -- snapshot/restore (checkpointing) ----------------------------------------
    def snapshot_state(self) -> Dict[str, object]:
        return {
            "state": self.state.value,
            "next_check_s": self._next_check_s,
            "queue": [
                [record.to_json_dict(), enqueued_s]
                for record, enqueued_s in self._queue
            ],
            "last_pressure": self.last_pressure,
            "offered": self.offered,
            "admitted": self.admitted,
            "admitted_degraded": self.admitted_degraded,
            "queued": self.queued,
            "queue_timeouts": self.queue_timeouts,
            "shed_tasks": self.shed_tasks,
            "rejected": self.rejected,
            "peak_queue_depth": self.peak_queue_depth,
            "admission_latencies": list(self.admission_latencies),
            "shed_names": list(self.shed_names),
            "transitions": [list(t) for t in self.transitions],
            "samples": [list(s) for s in self.samples],
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        self._ladder.restore(AdmissionState(state["state"]))
        self._next_check_s = state["next_check_s"]
        self._queue = [
            (ArrivalRecord.from_json_dict(record), enqueued_s)
            for record, enqueued_s in state["queue"]
        ]
        self.last_pressure = state["last_pressure"]
        self.offered = state["offered"]
        self.admitted = state["admitted"]
        self.admitted_degraded = state["admitted_degraded"]
        self.queued = state["queued"]
        self.queue_timeouts = state["queue_timeouts"]
        self.shed_tasks = state["shed_tasks"]
        self.rejected = state["rejected"]
        self.peak_queue_depth = state["peak_queue_depth"]
        self.admission_latencies = list(state["admission_latencies"])
        self.shed_names = list(state["shed_names"])
        self.transitions = [tuple(t) for t in state["transitions"]]
        self.samples = [tuple(s) for s in state["samples"]]


class OverloadManager:
    """Binds an :class:`ArrivalStream` (and optionally an
    :class:`AdmissionController`) to a running simulation.

    Attach with :meth:`attach`; the engine then calls :meth:`on_tick` at
    the top of every tick.  Without a controller every arrival is
    admitted immediately at full QoS -- the no-admission-control
    baseline the overload experiments compare against.

    The manager keeps a JSON-safe spawn log so checkpoint restore can
    re-materialise the exact task population of the interrupted run
    (see :func:`repro.checkpoint.snapshot.restore_simulation`).
    """

    def __init__(
        self,
        stream: ArrivalStream,
        controller: Optional[AdmissionController] = None,
    ):
        self.stream = stream
        self.controller = controller
        #: Live Task objects spawned so far, in spawn order.
        self.spawned_tasks: List = []
        #: The same tasks as a set, for membership tests.
        self.spawned_set: Set = set()
        #: JSON-safe spawn history backing checkpoint re-materialisation.
        self._spawn_log: List[Dict[str, object]] = []
        #: Arrivals admitted without a controller (baseline accounting).
        self.baseline_admitted = 0
        self.baseline_latencies: List[float] = []

    # -- identity ----------------------------------------------------------------
    def identity(self) -> Dict[str, object]:
        """Fingerprint material: stream + admission policy identity."""
        return {
            "stream": self.stream.identity(),
            "admission": (
                None if self.controller is None else self.controller.identity()
            ),
        }

    def admitted_task_names(self) -> List[str]:
        return [entry["record"]["name"] for entry in self._spawn_log]

    def committed_task_names(self) -> List[str]:
        """Admitted tasks whose commitment was kept (never shed).

        The tail-QoS population: shedding *withdraws* a commitment so the
        remaining admitted tasks can be served -- counting the shed
        (deliberately sacrificed) tasks would make every shed look like a
        QoS failure and hide exactly the protection it buys.
        """
        if self.controller is None:
            return self.admitted_task_names()
        shed = set(self.controller.shed_names)
        return [n for n in self.admitted_task_names() if n not in shed]

    def stats(self) -> Dict[str, int]:
        if self.controller is not None:
            return self.controller.stats()
        return {
            "offered": self.stream.count,
            "admitted": self.baseline_admitted,
        }

    # -- engine hooks ------------------------------------------------------------
    def attach(self, sim) -> "OverloadManager":
        sim.arrivals = self
        return self

    def on_tick(self, sim) -> None:
        records = self.stream.pop_due(sim.now)
        if self.controller is None:
            for record in records:
                self.spawn(sim, record, qos_factor=1.0)
                self.baseline_admitted += 1
                self.baseline_latencies.append(sim.now - record.arrival_s)
        else:
            self.controller.process(sim, self, records)

    def spawn(self, sim, record: ArrivalRecord, qos_factor: float) -> None:
        """Materialise one admitted arrival into the live task population."""
        task = record.materialize(
            start_time_s=sim.now,
            qos_factor=qos_factor,
            hrm_window_s=self.stream.config.hrm_window_s,
        )
        sim.add_task(task)
        self.spawned_tasks.append(task)
        self.spawned_set.add(task)
        self._spawn_log.append(
            {
                "record": record.to_json_dict(),
                "start_s": sim.now,
                "qos_factor": qos_factor,
            }
        )

    # -- snapshot/restore (checkpointing) ----------------------------------------
    def snapshot_state(self) -> Dict[str, object]:
        return {
            "stream": self.stream.snapshot_state(),
            "spawn_log": [dict(entry) for entry in self._spawn_log],
            # Live durations, aligned with spawn_log: shedding truncates a
            # task's duration in place, and the generic task restore does
            # not cover durations, so they must round-trip here or a shed
            # task would resurrect on resume.
            "durations": [task.duration for task in self.spawned_tasks],
            "baseline_admitted": self.baseline_admitted,
            "baseline_latencies": list(self.baseline_latencies),
            "controller": (
                None if self.controller is None else self.controller.snapshot_state()
            ),
        }

    def rematerialize_tasks(self, sim, state: Dict[str, object]) -> None:
        """Rebuild the spawned task population of a checkpointed run.

        Must run *before* the snapshot's per-task progress state is
        applied: it adds freshly materialised tasks through
        ``sim.add_task`` in the original spawn order so the restore's
        order-based zip lines up.
        """
        if self.spawned_tasks:
            raise ValueError(
                "cannot restore onto an OverloadManager that has already "
                "spawned tasks; restore requires a freshly built simulation"
            )
        for entry, duration in zip(state["spawn_log"], state["durations"]):
            record = ArrivalRecord.from_json_dict(entry["record"])
            task = record.materialize(
                start_time_s=entry["start_s"],
                qos_factor=entry["qos_factor"],
                hrm_window_s=self.stream.config.hrm_window_s,
            )
            task.duration = duration
            sim.add_task(task)
            self.spawned_tasks.append(task)
            self.spawned_set.add(task)
            self._spawn_log.append(dict(entry))

    def restore_state(self, sim, state: Dict[str, object]) -> None:
        """Restore stream/controller state (tasks were re-materialised
        earlier by :meth:`rematerialize_tasks`)."""
        self.stream.restore_state(state["stream"])
        self.baseline_admitted = state["baseline_admitted"]
        self.baseline_latencies = list(state["baseline_latencies"])
        controller_state = state["controller"]
        if controller_state is not None:
            if self.controller is None:
                raise ValueError(
                    "checkpoint includes admission-controller state but the "
                    "rebuilt simulation has no controller attached"
                )
            self.controller.restore_state(controller_state)
        elif self.controller is not None:
            raise ValueError(
                "rebuilt simulation attaches an admission controller but the "
                "checkpoint was taken without one"
            )
