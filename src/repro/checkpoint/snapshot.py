"""Full-state snapshot/restore of a running simulation.

``snapshot_simulation`` walks every mutable object a tick can touch --
the engine's clock and bookkeeping, the chip's regulators and gating, the
tasks' progress and heart-rate windows, placement, load tracking, energy
and metrics accumulators, the sensor's RNG stream, the governor, and an
attached fault injector -- into a JSON-serialisable payload.
``restore_simulation`` applies such a payload onto a *freshly built*
simulation (same config, seed, workload, governor: enforced upstream by
the fingerprint check) so that continuing the restored run is bit-
identical to never having stopped.  Python's ``json`` round-trips floats
exactly (shortest-repr), which is what makes bit-identity achievable
through a text format.

Governors participate in one of two ways:

* implement the :class:`Snapshottable` protocol (``snapshot_state`` /
  ``restore_state``) -- the PPM governor and its market do this, because
  their state includes enums, agent objects and round results that
  deserve explicit, versioned handling;
* or rely on the generic fallback, which encodes the instance ``__dict__``
  with tagged values (tasks by name, tuples, typed objects by import
  path) and restores onto / reconstructs the live objects.  The HPM and
  HL baselines restore through this path without any code of their own.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import asdict
from typing import Any, Callable, Dict, List, Optional, Protocol, runtime_checkable

from ..hw.sensors import SensorSample, ThermalSample
from ..sim.metrics import TaskSample, TickSample
from ..sim.migration import MigrationRecord
from .store import CheckpointError, canonical_json

#: Attribute names every generic governor snapshot skips: engine-owned
#: objects the factory rebuilds (snapshotting them would duplicate state
#: that :func:`restore_simulation` already handles authoritatively).
_GENERIC_SKIP_TYPES = frozenset(
    {"Simulation", "Chip", "Cluster", "Core", "Market", "LBTModule",
     "SteadyStateEstimator", "FaultInjector", "PowerSensor", "FaultySensor",
     "EstimationManager", "CounterEmitter", "FaultyCounters"}
)

_MAX_DEPTH = 8


@runtime_checkable
class Snapshottable(Protocol):
    """A governor (or sub-component) with explicit snapshot handling."""

    def snapshot_state(self) -> Dict[str, Any]:
        """Return a JSON-serialisable dict of all mutable state."""

    def restore_state(self, sim, state: Dict[str, Any]) -> None:
        """Apply a previously snapshotted ``state`` onto ``self``."""


class SnapshotRestoreError(CheckpointError):
    """The payload does not fit the simulation it is being applied to."""


# ---------------------------------------------------------------------------
# Small value codecs
# ---------------------------------------------------------------------------
def rng_state_to_json(state: tuple) -> list:
    """``random.Random.getstate()`` -> JSON-safe nested lists."""
    version, internal, gauss_next = state
    return [version, list(internal), gauss_next]


def rng_state_from_json(data: list) -> tuple:
    version, internal, gauss_next = data
    return (int(version), tuple(int(v) for v in internal), gauss_next)


def sample_to_json(sample: Optional[SensorSample]) -> Optional[dict]:
    return None if sample is None else asdict(sample)


def sample_from_json(data: Optional[dict]) -> Optional[SensorSample]:
    if data is None:
        return None
    return SensorSample(
        chip_power_w=data["chip_power_w"],
        cluster_power_w=dict(data["cluster_power_w"]),
        cluster_frequency_mhz=dict(data["cluster_frequency_mhz"]),
        cluster_voltage_v=dict(data["cluster_voltage_v"]),
    )


def thermal_sample_to_json(sample: Optional[ThermalSample]) -> Optional[dict]:
    return None if sample is None else asdict(sample)


def thermal_sample_from_json(data: Optional[dict]) -> Optional[ThermalSample]:
    if data is None:
        return None
    return ThermalSample(cluster_temperature_c=dict(data["cluster_temperature_c"]))


def tick_record(sample: TickSample) -> Dict[str, Any]:
    """One tick's telemetry as a JSON-safe dict: ``asdict(sample)``, by hand.

    Built field by field because ``asdict``'s recursive deep copy was most
    of a checkpoint's snapshot time.

    Each entry of ``tasks`` holds the five :class:`TaskSample` fields:
    ``heart_rate`` (the monitor's reading at the end of the tick),
    ``below_min`` and ``outside_range`` (that reading against the task's
    QoS range), ``granted_pus`` (``Task.last_supply_pus``) and
    ``demand_pus``, which holds the PUs the task *consumed*
    (``Task.last_consumed_pus``), not its demand; the key keeps its name
    because every checkpoint, journal and golden digest carries it.

    ``cluster_temperature_c`` is omitted when it is ``None`` (thermal
    tracking off), so journals, snapshots and the pinned telemetry digests
    of thermal-free runs are byte-identical to those recorded before the
    field existed; ``estimated_chip_power_w`` gets the same treatment for
    runs without estimated-power operation.  Restore accepts records with
    or without the two fields.
    """
    record: Dict[str, Any] = {
        "time_s": sample.time_s,
        "chip_power_w": sample.chip_power_w,
        "cluster_power_w": dict(sample.cluster_power_w),
        "cluster_frequency_mhz": dict(sample.cluster_frequency_mhz),
        "tasks": {
            name: {
                "heart_rate": task.heart_rate,
                "below_min": task.below_min,
                "outside_range": task.outside_range,
                "granted_pus": task.granted_pus,
                "demand_pus": task.demand_pus,
            }
            for name, task in sample.tasks.items()
        },
    }
    if sample.cluster_temperature_c is not None:
        record["cluster_temperature_c"] = dict(sample.cluster_temperature_c)
    if sample.estimated_chip_power_w is not None:
        record["estimated_chip_power_w"] = sample.estimated_chip_power_w
    return record


# ---------------------------------------------------------------------------
# Fingerprint
# ---------------------------------------------------------------------------
def simulation_fingerprint(sim, extra: Any = None) -> str:
    """Identity hash of everything that must match between save and resume.

    Covers the engine config (tick, seed, warm-up, gating, noise, audit),
    the chip topology (clusters, core counts, V-F ladders, transition
    latencies), the task population (names, profiles, priorities,
    lifetimes, HRM windows) and the governor class.  ``extra`` lets
    callers fold additional identity in (e.g. the campaign's fault kind
    and schedule parameters).  Two runs share a fingerprint iff a
    checkpoint of one is a valid resume point for the other.
    """
    cfg = sim.config
    material = {
        "config": {
            "dt": cfg.dt,
            "auto_power_gate": cfg.auto_power_gate,
            "metrics_warmup_s": cfg.metrics_warmup_s,
            "sensor_noise_std_w": cfg.sensor_noise_std_w,
            "seed": cfg.seed,
            "audit": cfg.audit,
            "thermal": None if cfg.thermal is None else {
                "sensor_noise_std_c": cfg.thermal.sensor_noise_std_c,
                "cycle_threshold_k": cfg.thermal.cycle_threshold_k,
                "tcrit_c": cfg.thermal.tcrit_c,
                "params": None if cfg.thermal.params is None else {
                    cid: asdict(p) for cid, p in sorted(cfg.thermal.params.items())
                },
                "protection": (
                    None if cfg.thermal.protection is None
                    else asdict(cfg.thermal.protection)
                ),
            },
            "estimation": (
                None if cfg.estimation is None else asdict(cfg.estimation)
            ),
        },
        "chip": {
            "name": sim.chip.name,
            "clusters": [
                {
                    "id": c.cluster_id,
                    "core_type": c.core_type,
                    "n_cores": len(c.cores),
                    "ladder": [
                        [lvl.frequency_mhz, lvl.voltage_v]
                        for lvl in c.vf_table.levels
                    ],
                    "transition_latency_s": c.regulator.transition_latency_s,
                }
                for c in sim.chip.clusters
            ],
        },
        "tasks": [
            {
                "name": t.name,
                "profile": t.profile.label,
                "priority": t.priority,
                "start_time": t.start_time,
                "duration": t.duration,
                "hrm_window_s": t.hrm.window_s,
            }
            for t in sim.tasks
            # Arrival-spawned tasks are run state, not run identity: the
            # population they came from is pinned below via the stream's
            # own identity (config + seed + trace), so a checkpoint taken
            # mid-crowd still fingerprints the same as the fresh run.
            if not getattr(t, "from_arrival", False)
        ],
        "governor": type(sim.governor).__name__,
        "extra": extra,
    }
    manager = getattr(sim, "arrivals", None)
    if manager is not None:
        material["arrivals"] = manager.identity()
    return hashlib.sha256(canonical_json(material).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Generic (fallback) governor encoding
# ---------------------------------------------------------------------------
_UNSUPPORTED = object()


def _is_task(value: Any) -> bool:
    from ..tasks.task import Task

    return isinstance(value, Task)


def _encode_value(value: Any, depth: int = 0) -> Any:
    """Encode one value into tagged JSON; ``_UNSUPPORTED`` when it can't be."""
    if depth > _MAX_DEPTH:
        return _UNSUPPORTED
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if _is_task(value):
        return {"__kind__": "task", "name": value.name}
    if isinstance(value, list):
        items = [_encode_value(v, depth + 1) for v in value]
        return _UNSUPPORTED if any(i is _UNSUPPORTED for i in items) else items
    if isinstance(value, tuple):
        items = [_encode_value(v, depth + 1) for v in value]
        if any(i is _UNSUPPORTED for i in items):
            return _UNSUPPORTED
        return {"__kind__": "tuple", "items": items}
    if isinstance(value, dict):
        pairs = []
        for k, v in value.items():
            ek = _encode_value(k, depth + 1)
            ev = _encode_value(v, depth + 1)
            if ek is _UNSUPPORTED or ev is _UNSUPPORTED:
                return _UNSUPPORTED
            pairs.append([ek, ev])
        return {"__kind__": "dict", "items": pairs}
    if type(value).__name__ in _GENERIC_SKIP_TYPES:
        return _UNSUPPORTED
    if hasattr(value, "__dict__") and not callable(value):
        state = {}
        for attr, attr_value in vars(value).items():
            encoded = _encode_value(attr_value, depth + 1)
            if encoded is not _UNSUPPORTED:
                state[attr] = encoded
        return {
            "__kind__": "object",
            "module": type(value).__module__,
            "qualname": type(value).__qualname__,
            "state": state,
        }
    return _UNSUPPORTED


def _decode_value(encoded: Any, task_by_name: Dict[str, Any], existing: Any = None) -> Any:
    """Decode a tagged value; ``existing`` (when given) is updated in place."""
    if encoded is None or isinstance(encoded, (bool, int, float, str)):
        return encoded
    if isinstance(encoded, list):
        return [_decode_value(v, task_by_name) for v in encoded]
    kind = encoded.get("__kind__")
    if kind == "task":
        name = encoded["name"]
        if name not in task_by_name:
            raise SnapshotRestoreError(
                f"snapshot references task {name!r} which does not exist in "
                "the rebuilt simulation; the workload differs from the "
                "checkpointed run"
            )
        return task_by_name[name]
    if kind == "tuple":
        return tuple(_decode_value(v, task_by_name) for v in encoded["items"])
    if kind == "dict":
        return {
            _decode_value(k, task_by_name): _decode_value(v, task_by_name)
            for k, v in encoded["items"]
        }
    if kind == "object":
        target = existing
        if target is None or type(target).__qualname__ != encoded["qualname"]:
            target = _construct_object(encoded)
        _apply_object_state(target, encoded["state"], task_by_name)
        return target
    raise SnapshotRestoreError(f"unknown tagged value kind {kind!r} in snapshot")


def _construct_object(encoded: dict) -> Any:
    import importlib

    try:
        module = importlib.import_module(encoded["module"])
        cls = module
        for part in encoded["qualname"].split("."):
            cls = getattr(cls, part)
    except (ImportError, AttributeError) as exc:
        raise SnapshotRestoreError(
            f"cannot reconstruct {encoded['module']}.{encoded['qualname']} "
            f"from snapshot: {exc}"
        ) from exc
    return object.__new__(cls)  # type: ignore[arg-type]


def _apply_object_state(
    target: Any, state: Dict[str, Any], task_by_name: Dict[str, Any]
) -> None:
    for attr, encoded in state.items():
        existing = getattr(target, attr, None)
        setattr(target, attr, _decode_value(encoded, task_by_name, existing))


def generic_snapshot(obj: Any) -> Dict[str, Any]:
    """Snapshot an arbitrary object's ``__dict__`` with tagged values."""
    state = {}
    for attr, value in vars(obj).items():
        encoded = _encode_value(value)
        if encoded is not _UNSUPPORTED:
            state[attr] = encoded
    return state


def generic_restore(obj: Any, state: Dict[str, Any], task_by_name: Dict[str, Any]) -> None:
    """Apply a :func:`generic_snapshot` onto a live object in place."""
    _apply_object_state(obj, state, task_by_name)


# ---------------------------------------------------------------------------
# Snapshot
# ---------------------------------------------------------------------------
def snapshot_simulation(sim, tick_history: bool = True) -> Dict[str, Any]:
    """Capture every mutable bit of ``sim`` into a JSON-serialisable dict.

    ``tick_history=False`` leaves out ``payload["metrics"]["samples"]``,
    the one part that grows with the run, for a caller that encodes the
    tick records itself (:class:`~repro.checkpoint.manager.CheckpointManager`
    encodes each tick once and splices the history in when it writes).
    """
    # Checkpoint barrier: materialise the object view (task attributes,
    # load dict) before reading it; no-op on the reference engine.
    sim.sync()
    payload: Dict[str, Any] = {
        "engine": _snapshot_engine(sim),
        "chip": _snapshot_chip(sim),
        "tasks": _snapshot_tasks(sim),
        "placement": _snapshot_placement(sim),
        "load": [
            [task.name, load] for task, load in sim.load_tracker._load.items()
        ],
        "energy": {
            "energy_j": dict(sim.energy.energy_j),
            "elapsed_s": sim.energy.elapsed_s,
        },
        "migrations": [asdict(r) for r in sim.migrations.history],
        "metrics": {"audit_violations": list(sim.metrics.audit_violations)},
        "sensor": _snapshot_sensor(sim),
        "governor": _snapshot_governor(sim),
    }
    if sim.fault_injector is not None:
        payload["fault_injector"] = sim.fault_injector.snapshot_state()
    if sim.thermal is not None:
        payload["thermal"] = _snapshot_thermal(sim)
    if getattr(sim, "estimation", None) is not None:
        payload["estimation"] = _snapshot_estimation(sim)
    if sim.arrivals is not None:
        payload["arrivals"] = sim.arrivals.snapshot_state()
    if tick_history:
        payload["metrics"]["samples"] = [
            tick_record(s) for s in sim.metrics.samples
        ]
    return payload


def _snapshot_engine(sim) -> Dict[str, Any]:
    return {
        "now": sim.now,
        "tick_index": sim.tick_index,
        "prepared": sim._prepared,
        "offline": sorted(sim._offline),
        "gate_held_down": sorted(sim._gate_held_down),
        "sensor_read_failures": sim.sensor_read_failures,
        "failed_migrations": sim.failed_migrations,
        "allocations": [[t.name, v] for t, v in sim._allocations.items()],
        "weights": [[t.name, v] for t, v in sim._weights.items()],
        "last_sensor_sample": sample_to_json(sim._last_sensor_sample),
    }


def _snapshot_chip(sim) -> Dict[str, Any]:
    clusters = {}
    for cluster in sim.chip.clusters:
        reg = cluster.regulator
        clusters[cluster.cluster_id] = {
            "powered": cluster.powered,
            "regulator": {
                "level_index": reg.level_index,
                "pending_index": reg._pending_index,
                "pending_remaining_s": reg._pending_remaining_s,
                "transitions": reg.transitions,
            },
            "core_utilization": [core.utilization for core in cluster.cores],
        }
    return {"clusters": clusters}


def _snapshot_tasks(sim) -> List[Dict[str, Any]]:
    return [
        {
            "name": task.name,
            "total_beats": task.total_beats,
            "total_work_pu_s": task.total_work_pu_s,
            "last_supply_pus": task.last_supply_pus,
            "last_consumed_pus": task.last_consumed_pus,
            "frozen_until": task.frozen_until,
            "migrations": task.migrations,
            "hrm_samples": [[t, b] for t, b in task.hrm._samples],
        }
        for task in sim.tasks
    ]


def _snapshot_placement(sim) -> List[List[Any]]:
    return [
        [core.core_id, [t.name for t in sim.placement.tasks_on_core(core)]]
        for core in sim.chip.cores
    ]


def _snapshot_sensor(sim) -> Dict[str, Any]:
    sensor = sim.sensor
    wrapper = None
    inner = sensor
    if hasattr(sensor, "_inner"):  # FaultySensor front end
        inner = sensor._inner
        wrapper = sensor.snapshot_state()
    return {
        "rng_state": rng_state_to_json(inner._rng.getstate()),
        "last_sample": sample_to_json(inner._last_sample),
        "wrapper": wrapper,
    }


def _snapshot_thermal(sim) -> Dict[str, Any]:
    sensor = sim.thermal_sensor
    wrapper = None
    inner = sensor
    if hasattr(sensor, "_inner"):  # FaultyThermalSensor front end
        inner = sensor._inner
        wrapper = sensor.snapshot_state()
    supervisor = sim.thermal_supervisor
    return {
        "model": sim.thermal.snapshot_state(),
        "cycle_counters": {
            cid: counter.snapshot_state()
            for cid, counter in sim.cycle_counters.items()
        },
        "sensor": {
            "rng_state": rng_state_to_json(inner._rng.getstate()),
            "last_sample": thermal_sample_to_json(inner._last_sample),
            "wrapper": wrapper,
        },
        "last_thermal_sample": thermal_sample_to_json(sim._last_thermal_sample),
        "time_over_tcrit_s": sim.time_over_tcrit_s,
        "thermal_read_failures": sim.thermal_read_failures,
        "level_ceiling": dict(sim._level_ceiling),
        "supervisor": (
            supervisor.snapshot_state() if supervisor is not None else None
        ),
    }


def _snapshot_estimation(sim) -> Dict[str, Any]:
    manager = sim.estimation
    emitter = manager.emitter
    wrapper = None
    if hasattr(emitter, "_inner"):  # FaultyCounters front end
        wrapper = emitter.snapshot_state()
    supervisor = manager.supervisor
    return {
        "ticks": manager.ticks,
        "emitter": {
            # rng_state passes through the wrapper to the inner emitter.
            "rng_state": rng_state_to_json(emitter.rng_state()),
            "wrapper": wrapper,
        },
        "estimator": manager.estimator.snapshot_state(),
        "supervisor": (
            supervisor.snapshot_state() if supervisor is not None else None
        ),
        "served_sample": sample_to_json(sim._estimated_sample),
    }


def _snapshot_governor(sim) -> Dict[str, Any]:
    governor = sim.governor
    if isinstance(governor, Snapshottable):
        return {
            "type": type(governor).__name__,
            "mode": "snapshottable",
            "state": governor.snapshot_state(),
        }
    return {
        "type": type(governor).__name__,
        "mode": "generic",
        "state": generic_snapshot(governor),
    }


# ---------------------------------------------------------------------------
# Restore
# ---------------------------------------------------------------------------
def restore_simulation(sim, payload: Dict[str, Any]) -> None:
    """Apply ``payload`` onto a freshly built ``sim`` in place.

    ``sim`` must be structurally identical to the checkpointed run (same
    config/seed/chip/workload/governor -- callers verify the fingerprint
    before getting here) and must not have been stepped yet.
    """
    arrivals_state = payload.get("arrivals")
    manager = getattr(sim, "arrivals", None)
    if arrivals_state is not None:
        if manager is None:
            raise SnapshotRestoreError(
                "checkpoint was taken with an arrival stream attached, but "
                "the rebuilt simulation has none; attach the same "
                "OverloadManager before restoring"
            )
        # Re-materialise the tasks the stream had spawned so the ordered
        # task zip below lines up (base workload first, then arrivals in
        # their original spawn order).
        manager.rematerialize_tasks(sim, arrivals_state)
    elif manager is not None:
        raise SnapshotRestoreError(
            "rebuilt simulation has an arrival stream but the checkpoint "
            "was taken without one; rebuild without attaching it"
        )
    task_by_name = _restore_tasks(sim, payload["tasks"])
    _restore_chip(sim, payload["chip"])
    _restore_placement(sim, payload["placement"], task_by_name)
    _restore_engine(sim, payload["engine"], task_by_name)
    sim.load_tracker._load = {
        task_by_name[name]: load for name, load in payload["load"]
    }
    sim.energy.energy_j = dict(payload["energy"]["energy_j"])
    sim.energy.elapsed_s = payload["energy"]["elapsed_s"]
    sim.migrations.history = [
        MigrationRecord(**record) for record in payload["migrations"]
    ]
    _restore_metrics(sim, payload["metrics"])
    _restore_sensor(sim, payload["sensor"])
    _restore_governor(sim, payload["governor"], task_by_name)
    # The first-tick prepare already ran in the checkpointed run; mark it
    # done and re-create the pieces that prepare would have attached.
    sim._prepared = True
    sim._maybe_attach_auditor()
    sim._last_audited_round = getattr(sim.governor, "last_round", None)
    thermal_state = payload.get("thermal")
    if thermal_state is not None:
        if sim.thermal is None:
            raise SnapshotRestoreError(
                "checkpoint was taken with thermal tracking but the rebuilt "
                "simulation has none; set the same SimConfig.thermal before "
                "restoring"
            )
        _restore_thermal(sim, thermal_state)
    elif sim.thermal is not None:
        raise SnapshotRestoreError(
            "rebuilt simulation tracks thermals but the checkpoint was "
            "taken without thermal tracking; rebuild with thermal=None"
        )
    estimation_state = payload.get("estimation")
    if estimation_state is not None:
        if getattr(sim, "estimation", None) is None:
            raise SnapshotRestoreError(
                "checkpoint was taken in estimated-power mode but the "
                "rebuilt simulation has no estimation pipeline; set the "
                "same SimConfig.estimation before restoring"
            )
        _restore_estimation(sim, estimation_state)
    elif getattr(sim, "estimation", None) is not None:
        raise SnapshotRestoreError(
            "rebuilt simulation runs estimated-power mode but the "
            "checkpoint was taken without it; rebuild with estimation=None"
        )
    injector_state = payload.get("fault_injector")
    injector = sim.fault_injector
    if injector_state is not None:
        if injector is None:
            raise SnapshotRestoreError(
                "checkpoint was taken with a fault injector attached, but "
                "the rebuilt simulation has none; attach the same fault "
                "schedule before restoring"
            )
        injector.restore_state(sim, injector_state)
    elif injector is not None:
        raise SnapshotRestoreError(
            "rebuilt simulation has a fault injector but the checkpoint "
            "was taken without one; rebuild without the schedule"
        )
    if arrivals_state is not None:
        manager.restore_state(sim, arrivals_state)


def _restore_tasks(sim, states: List[Dict[str, Any]]) -> Dict[str, Any]:
    if len(states) != len(sim.tasks):
        raise SnapshotRestoreError(
            f"snapshot holds {len(states)} tasks but the rebuilt simulation "
            f"has {len(sim.tasks)}; the workload differs from the "
            "checkpointed run"
        )
    task_by_name: Dict[str, Any] = {}
    for task, state in zip(sim.tasks, states):
        task.name = state["name"]
        task.total_beats = state["total_beats"]
        task.total_work_pu_s = state["total_work_pu_s"]
        task.last_supply_pus = state["last_supply_pus"]
        task.last_consumed_pus = state["last_consumed_pus"]
        task.frozen_until = state["frozen_until"]
        task.migrations = state["migrations"]
        task.hrm._samples = deque((t, b) for t, b in state["hrm_samples"])
        task_by_name[task.name] = task
    return task_by_name


def _restore_chip(sim, state: Dict[str, Any]) -> None:
    snapshot_ids = set(state["clusters"])
    live_ids = {c.cluster_id for c in sim.chip.clusters}
    if snapshot_ids != live_ids:
        raise SnapshotRestoreError(
            f"snapshot covers clusters {sorted(snapshot_ids)} but the chip "
            f"has {sorted(live_ids)}; the topology differs from the "
            "checkpointed run"
        )
    for cluster in sim.chip.clusters:
        cstate = state["clusters"][cluster.cluster_id]
        cluster.powered = cstate["powered"]
        reg = cluster.regulator
        rstate = cstate["regulator"]
        reg.level_index = rstate["level_index"]
        reg._pending_index = rstate["pending_index"]
        reg._pending_remaining_s = rstate["pending_remaining_s"]
        reg.transitions = rstate["transitions"]
        utils = cstate["core_utilization"]
        if len(utils) != len(cluster.cores):
            raise SnapshotRestoreError(
                f"snapshot has {len(utils)} cores for cluster "
                f"{cluster.cluster_id} but the chip has {len(cluster.cores)}"
            )
        for core, utilization in zip(cluster.cores, utils):
            core.utilization = utilization


def _restore_placement(sim, state: List[List[Any]], task_by_name: Dict[str, Any]) -> None:
    for task in list(sim.placement.all_tasks()):
        sim.placement.remove(task)
    for core_id, names in state:
        core = sim.chip.core(core_id)
        for name in names:
            sim.placement.place(task_by_name[name], core)


def _restore_engine(sim, state: Dict[str, Any], task_by_name: Dict[str, Any]) -> None:
    sim.now = state["now"]
    sim.tick_index = state["tick_index"]
    sim._offline = set(state["offline"])
    sim._gate_held_down = set(state["gate_held_down"])
    sim.sensor_read_failures = state["sensor_read_failures"]
    sim.failed_migrations = state["failed_migrations"]
    sim._allocations = {
        task_by_name[name]: value for name, value in state["allocations"]
    }
    sim._weights = {task_by_name[name]: value for name, value in state["weights"]}
    sim._last_sensor_sample = sample_from_json(state["last_sensor_sample"])


def _restore_metrics(sim, state: Dict[str, Any]) -> None:
    sim.metrics.samples = [
        TickSample(
            time_s=s["time_s"],
            chip_power_w=s["chip_power_w"],
            cluster_power_w=dict(s["cluster_power_w"]),
            cluster_frequency_mhz=dict(s["cluster_frequency_mhz"]),
            tasks={
                name: TaskSample(**task_sample)
                for name, task_sample in s["tasks"].items()
            },
            cluster_temperature_c=(
                None
                if s.get("cluster_temperature_c") is None
                else dict(s["cluster_temperature_c"])
            ),
            estimated_chip_power_w=s.get("estimated_chip_power_w"),
        )
        for s in state["samples"]
    ]
    sim.metrics.audit_violations = list(state["audit_violations"])


def _restore_thermal(sim, state: Dict[str, Any]) -> None:
    sim.thermal.restore_state(state["model"])
    counters = state["cycle_counters"]
    if set(counters) != set(sim.cycle_counters):
        raise SnapshotRestoreError(
            f"snapshot has cycle counters for {sorted(counters)} but the "
            f"rebuilt simulation tracks {sorted(sim.cycle_counters)}"
        )
    for cluster_id, cstate in counters.items():
        sim.cycle_counters[cluster_id].restore_state(cstate)
    sensor = sim.thermal_sensor
    sensor_state = state["sensor"]
    wrapped = hasattr(sensor, "_inner")
    if sensor_state["wrapper"] is not None and not wrapped:
        raise SnapshotRestoreError(
            "checkpoint was taken through a faulty thermal-sensor front end "
            "but the rebuilt simulation reads the bare sensor; attach the "
            "fault injector before restoring"
        )
    if sensor_state["wrapper"] is None and wrapped:
        raise SnapshotRestoreError(
            "rebuilt simulation wraps the thermal sensor in a fault "
            "injector but the checkpoint was taken without one"
        )
    inner = sensor._inner if wrapped else sensor
    inner._rng.setstate(rng_state_from_json(sensor_state["rng_state"]))
    inner._last_sample = thermal_sample_from_json(sensor_state["last_sample"])
    if wrapped:
        sensor.restore_state(sim, sensor_state["wrapper"])
    sim._last_thermal_sample = thermal_sample_from_json(
        state["last_thermal_sample"]
    )
    sim.time_over_tcrit_s = state["time_over_tcrit_s"]
    sim.thermal_read_failures = state["thermal_read_failures"]
    sim._level_ceiling = {
        cid: int(index) for cid, index in state["level_ceiling"].items()
    }
    supervisor_state = state["supervisor"]
    if supervisor_state is not None:
        if sim.thermal_supervisor is None:
            raise SnapshotRestoreError(
                "checkpoint includes thermal-supervisor state but the "
                "rebuilt simulation has no ThermalProtectionConfig"
            )
        sim.thermal_supervisor.restore_state(supervisor_state)


def _restore_estimation(sim, state: Dict[str, Any]) -> None:
    manager = sim.estimation
    emitter = manager.emitter
    wrapped = hasattr(emitter, "_inner")
    emitter_state = state["emitter"]
    if emitter_state["wrapper"] is not None and not wrapped:
        raise SnapshotRestoreError(
            "checkpoint was taken through a faulty-counters front end but "
            "the rebuilt simulation reads the bare emitter; attach the "
            "fault injector before restoring"
        )
    if emitter_state["wrapper"] is None and wrapped:
        raise SnapshotRestoreError(
            "rebuilt simulation wraps the counter emitter in a fault "
            "injector but the checkpoint was taken without one"
        )
    emitter.set_rng_state(rng_state_from_json(emitter_state["rng_state"]))
    if wrapped:
        emitter.restore_state(sim, emitter_state["wrapper"])
    manager.ticks = state["ticks"]
    manager.estimator.restore_state(state["estimator"])
    supervisor_state = state["supervisor"]
    if supervisor_state is not None:
        if manager.supervisor is None:
            raise SnapshotRestoreError(
                "checkpoint includes estimator-supervisor state but the "
                "rebuilt simulation runs unsupervised estimation"
            )
        manager.supervisor.restore_state(supervisor_state)
    elif manager.supervisor is not None:
        raise SnapshotRestoreError(
            "rebuilt simulation supervises the estimator but the "
            "checkpoint was taken without a supervisor"
        )
    sim._estimated_sample = sample_from_json(state["served_sample"])
    manager.served_sample = sim._estimated_sample


def _restore_sensor(sim, state: Dict[str, Any]) -> None:
    sensor = sim.sensor
    wrapped = hasattr(sensor, "_inner")
    if state["wrapper"] is not None and not wrapped:
        raise SnapshotRestoreError(
            "checkpoint was taken through a faulty-sensor front end but the "
            "rebuilt simulation reads the bare sensor; attach the fault "
            "injector before restoring"
        )
    if state["wrapper"] is None and wrapped:
        raise SnapshotRestoreError(
            "rebuilt simulation wraps the sensor in a fault injector but "
            "the checkpoint was taken without one"
        )
    inner = sensor._inner if wrapped else sensor
    inner._rng.setstate(rng_state_from_json(state["rng_state"]))
    inner._last_sample = sample_from_json(state["last_sample"])
    if wrapped:
        sensor.restore_state(sim, state["wrapper"])


def _restore_governor(sim, state: Dict[str, Any], task_by_name: Dict[str, Any]) -> None:
    governor = sim.governor
    expected = state["type"]
    if type(governor).__name__ != expected:
        raise SnapshotRestoreError(
            f"checkpoint was taken under governor {expected!r} but the "
            f"rebuilt simulation runs {type(governor).__name__!r}"
        )
    if state["mode"] == "snapshottable":
        if not isinstance(governor, Snapshottable):
            raise SnapshotRestoreError(
                f"governor {expected!r} no longer implements the "
                "Snapshottable protocol this checkpoint requires"
            )
        governor.restore_state(sim, state["state"])
    else:
        generic_restore(governor, state["state"], task_by_name)
