"""The fleet supervisor: a grid-budget market over worker processes.

One supervisor drives N chips, each simulated in its own worker process
(:mod:`repro.fleet.worker`), through a lockstep sequence of global
epochs.  Every epoch it:

1. restarts any chip that went down, from the last checkpoint *the
   supervisor* acknowledged (readmitted at the bottom of its
   :class:`~repro.fleet.budget.ReadmissionLadder`);
2. injects any scheduled fleet faults (kill/stall/message loss);
3. clears the grid-budget auction over the live chips' bids
   (:func:`~repro.fleet.budget.clear_grants`) and audits the clearing
   (:class:`~repro.fleet.budget.FleetBudgetAuditor`);
4. commands each live chip to run one chip-epoch under its grant --
   lagging chips (fresh from a checkpoint) catch up a bounded number of
   chip-epochs per round;
5. promotes ladders for chips that finished the epoch aligned and
   healthy, audits every ladder move of the epoch, then writes the
   fleet checkpoint manifest.

Failure detection is entirely in-band: a dead worker surfaces as a
closed pipe, a wedged one as an exhausted retry schedule
(:class:`~repro.fleet.protocol.WorkerTimeout`).  The supervisor never
blocks unboundedly and never double-runs simulated time (workers treat
re-delivered epoch commands idempotently).  While a chip is down its
budget share is redistributed by the same clearing rules, so the
conservation invariant (grants never exceed the grid budget) holds
through any fault pattern.

Fault-free fleets are deterministic: results depend only on the fleet
config (chip specs, seeds, budget, epoch count), never on wall-clock
timing, and a fleet resumed from its manifest reproduces the remaining
epochs byte-identically.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..checkpoint import (
    canonical_json,
    fleet_manifest_path,
    read_fleet_manifest,
    write_fleet_manifest,
)
from .budget import (
    ChipBid,
    FleetBudgetAuditor,
    FleetBudgetConfig,
    ReadmissionLadder,
    clear_grants,
)
from .faults import FleetFaultInjector, FleetFaultSchedule
from .protocol import (
    MSG_DROP,
    MSG_EPOCH,
    MSG_ERROR,
    MSG_HEARTBEAT,
    MSG_HELLO,
    MSG_RESULT,
    MSG_SHUTDOWN,
    MSG_STALL,
    ProtocolError,
    RetryPolicy,
    WorkerClosed,
    WorkerTimeout,
    poll_message,
    request,
    send_message,
)
from .worker import ChipSpec, worker_main

#: Environment marker stamped on every worker process so orphan scans
#: (and humans reading ``/proc``) can attribute a worker to its fleet.
FLEET_ENV_MARKER = "REPRO_FLEET_RUN_ID"

#: The report schema tag, bumped on incompatible report layout changes.
FLEET_REPORT_SCHEMA = "repro-fleet-report/v1"


class WorkerFault(ProtocolError):
    """The worker reported an internal error; treated as a crash."""


def _fingerprint(identity: Mapping[str, Any]) -> str:
    import hashlib

    return hashlib.sha256(canonical_json(identity).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class FleetConfig:
    """Everything that defines a fleet campaign.

    The *identity* fields (chips, epochs, epoch length, budget market,
    catch-up bound) determine results and are folded into the fleet
    fingerprint; the wall-clock knobs (heartbeat cadence, retry policy,
    hello timeout) only shape fault detection and may differ between a
    run and its resume without breaking byte-identical replay.
    """

    chips: Tuple[ChipSpec, ...]
    epochs: int
    budget: FleetBudgetConfig
    epoch_s: float = 1.0
    catchup_per_round: int = 2
    heartbeat_interval_s: float = 0.25
    hello_timeout_s: float = 60.0
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self) -> None:
        if not self.chips:
            raise ValueError("a fleet needs at least one chip")
        ids = [spec.chip_id for spec in self.chips]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate chip ids in fleet config")
        if self.epochs < 1:
            raise ValueError("a fleet campaign needs at least one epoch")
        if self.epoch_s <= 0:
            raise ValueError("epoch duration must be positive")
        if self.catchup_per_round < 1:
            raise ValueError("catch-up bound must be at least one epoch")
        if self.heartbeat_interval_s <= 0 or self.hello_timeout_s <= 0:
            raise ValueError("heartbeat/hello intervals must be positive")

    def identity(self) -> Dict[str, Any]:
        """The result-determining part of the config (fingerprinted)."""
        return {
            "chips": [spec.identity() for spec in self.chips],
            "epochs": self.epochs,
            "epoch_s": self.epoch_s,
            "catchup_per_round": self.catchup_per_round,
            "budget": {
                "grid_budget_w": self.budget.grid_budget_w,
                "min_grant_w": self.budget.min_grant_w,
                "ladder_weights": list(self.budget.ladder_weights),
                "hysteresis_epochs": self.budget.hysteresis_epochs,
                "region_prices": dict(
                    sorted(dict(self.budget.region_prices).items())
                ),
            },
        }

    def to_json(self) -> Dict[str, Any]:
        data = self.identity()
        data["heartbeat_interval_s"] = self.heartbeat_interval_s
        data["hello_timeout_s"] = self.hello_timeout_s
        data["retry"] = {
            "attempts": self.retry.attempts,
            "timeout_s": self.retry.timeout_s,
            "backoff": self.retry.backoff,
            "max_timeout_s": self.retry.max_timeout_s,
        }
        return data

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "FleetConfig":
        budget = data["budget"]
        retry = data.get("retry", {})
        return cls(
            chips=tuple(ChipSpec.from_json(item) for item in data["chips"]),
            epochs=int(data["epochs"]),
            epoch_s=float(data["epoch_s"]),
            catchup_per_round=int(data["catchup_per_round"]),
            budget=FleetBudgetConfig(
                grid_budget_w=float(budget["grid_budget_w"]),
                min_grant_w=float(budget["min_grant_w"]),
                ladder_weights=tuple(
                    float(w) for w in budget["ladder_weights"]
                ),
                hysteresis_epochs=int(budget["hysteresis_epochs"]),
                region_prices=dict(budget["region_prices"]),
            ),
            heartbeat_interval_s=float(data.get("heartbeat_interval_s", 0.25)),
            hello_timeout_s=float(data.get("hello_timeout_s", 60.0)),
            retry=RetryPolicy(
                attempts=int(retry.get("attempts", 3)),
                timeout_s=float(retry.get("timeout_s", 10.0)),
                backoff=float(retry.get("backoff", 2.0)),
                max_timeout_s=float(retry.get("max_timeout_s", 60.0)),
            ),
        )


class WorkerHandle:
    """The supervisor's view of one chip and its (current) process."""

    def __init__(self, spec: ChipSpec, ladder: ReadmissionLadder):
        self.spec = spec
        self.ladder = ladder
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self.conn = None
        self.up = False
        self.completed_epochs = 0
        self.last_bid_w = spec.tdp_w
        self.last_checkpoint: Optional[str] = None
        self.last_result: Optional[Dict[str, Any]] = None
        self.restarts = 0

    @property
    def chip_id(self) -> str:
        return self.spec.chip_id


class FleetSupervisor:
    """Runs one fleet campaign; see the module docstring for the loop."""

    def __init__(
        self,
        config: FleetConfig,
        fleet_dir: str,
        schedule: Optional[FleetFaultSchedule] = None,
        strict_audit: bool = False,
    ):
        self.config = config
        self.fleet_dir = fleet_dir
        self.identity = config.identity()
        self.fingerprint = _fingerprint(self.identity)
        self.schedule = schedule or FleetFaultSchedule()
        self.injector = FleetFaultInjector(self.schedule)
        self.auditor = FleetBudgetAuditor(strict=strict_audit)
        self.handles: Dict[str, WorkerHandle] = {
            spec.chip_id: WorkerHandle(spec, ReadmissionLadder(config.budget))
            for spec in config.chips
        }
        self.epochs_completed = 0
        #: One row per completed global epoch; the deterministic record.
        self.rows: List[Dict[str, Any]] = []
        #: (epoch, chip_id, failure kind) for every detected failure.
        self.failures: List[List[Any]] = []
        self._ctx = multiprocessing.get_context("spawn")

    # -- construction from a manifest ----------------------------------
    @classmethod
    def resume(
        cls, fleet_dir: str, strict_audit: bool = False
    ) -> "FleetSupervisor":
        """Rebuild a supervisor from the fleet manifest in ``fleet_dir``.

        The manifest's fingerprint is re-derived from its recorded config
        and must match; every restored worker is spawned from exactly the
        per-chip checkpoint the manifest names.
        """
        manifest = read_fleet_manifest(fleet_manifest_path(fleet_dir))
        config = FleetConfig.from_json(manifest.config)
        supervisor = cls(
            config,
            fleet_dir,
            schedule=FleetFaultSchedule.from_json(
                manifest.supervisor.get("schedule", [])
            ),
            strict_audit=strict_audit,
        )
        if supervisor.fingerprint != manifest.fingerprint:
            from ..checkpoint import CheckpointFingerprintError

            raise CheckpointFingerprintError(
                f"fleet manifest {manifest.path!r} fingerprint "
                f"{manifest.fingerprint[:12]}... does not match its own "
                f"recorded config ({supervisor.fingerprint[:12]}...); the "
                "manifest is inconsistent"
            )
        supervisor.epochs_completed = manifest.epochs_completed
        supervisor.rows = list(manifest.supervisor.get("rows", []))
        supervisor.failures = [
            list(item) for item in manifest.supervisor.get("failures", [])
        ]
        supervisor.auditor.restore_state(manifest.supervisor.get("audit", []))
        supervisor.injector.injected = dict(
            manifest.supervisor.get("injected", {})
        )
        for chip_id, entry in manifest.chips.items():
            handle = supervisor.handles[chip_id]
            handle.completed_epochs = int(entry["completed_epochs"])
            handle.last_checkpoint = entry["checkpoint"]
            handle.last_result = entry.get("last_result")
            handle.restarts = int(entry.get("restarts", 0))
            if handle.last_result is not None:
                handle.last_bid_w = float(handle.last_result["next_bid_w"])
            handle.ladder.restore_state(entry["ladder"])
        return supervisor

    # -- process management --------------------------------------------
    def _spawn(self, handle: WorkerHandle) -> None:
        """Start (or restart) one chip's worker and await its hello."""
        self._start_process(handle)
        self._finish_spawn(handle)

    def _start_process(self, handle: WorkerHandle) -> None:
        # The lazily-spawned multiprocessing resource tracker must not
        # be born inside the env-marker window below: it deliberately
        # outlives every child process, so a tracker carrying the fleet
        # marker would read as an eternal orphan in process-table scans.
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=worker_main,
            args=(
                child_conn,
                handle.spec.identity(),
                self.identity,
                self.fleet_dir,
                self.config.heartbeat_interval_s,
                handle.last_checkpoint,
            ),
            name=f"fleet-worker-{handle.chip_id}",
            daemon=True,
        )
        marker = os.path.realpath(self.fleet_dir)
        previous = os.environ.get(FLEET_ENV_MARKER)
        os.environ[FLEET_ENV_MARKER] = marker
        try:
            process.start()
        finally:
            if previous is None:
                os.environ.pop(FLEET_ENV_MARKER, None)
            else:
                os.environ[FLEET_ENV_MARKER] = previous
        child_conn.close()
        handle.process = process
        handle.conn = parent_conn

    def _finish_spawn(self, handle: WorkerHandle) -> None:
        hello = self._await_hello(handle)
        if int(hello["completed_epochs"]) != handle.completed_epochs:
            self._kill_process(handle)
            raise ProtocolError(
                f"chip {handle.chip_id}: worker came up at epoch "
                f"{hello['completed_epochs']} but the supervisor expected "
                f"{handle.completed_epochs}; checkpoint state is inconsistent"
            )
        handle.last_checkpoint = hello["checkpoint"]
        handle.up = True

    def _await_hello(self, handle: WorkerHandle) -> Dict[str, Any]:
        import time

        deadline = time.monotonic() + self.config.hello_timeout_s
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self._kill_process(handle)
                raise WorkerTimeout(
                    f"chip {handle.chip_id}: no hello within "
                    f"{self.config.hello_timeout_s:.0f}s of spawn"
                )
            message = poll_message(handle.conn, remaining)
            if message is None:
                continue
            if message["type"] == MSG_HELLO:
                return message
            if message["type"] == MSG_ERROR:
                self._kill_process(handle)
                raise WorkerFault(
                    f"chip {handle.chip_id}: {message.get('reason')}"
                )

    def _kill_process(self, handle: WorkerHandle) -> None:
        process = handle.process
        if process is not None and process.pid is not None:
            try:
                os.kill(process.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
            process.join(timeout=5.0)
        if handle.conn is not None:
            try:
                handle.conn.close()
            except OSError:
                pass
        handle.conn = None
        handle.process = None
        handle.up = False

    def _mark_down(self, handle: WorkerHandle, epoch: int, exc: Exception) -> None:
        self.failures.append([epoch, handle.chip_id, type(exc).__name__])
        self._kill_process(handle)
        handle.ladder.on_failure(epoch)

    # -- fault-injection seams (driven by FleetFaultInjector) ----------
    def inject_kill(self, chip_id: str) -> bool:
        """SIGKILL a worker; the supervisor must *detect* the death."""
        handle = self.handles.get(chip_id)
        if handle is None or not handle.up or handle.process is None:
            return False
        try:
            os.kill(handle.process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            return False
        handle.process.join(timeout=5.0)
        return True

    def inject_stall(self, chip_id: str, stall_s: float) -> bool:
        """Wedge a worker's command loop for ``stall_s`` wall seconds."""
        handle = self.handles.get(chip_id)
        if handle is None or not handle.up:
            return False
        try:
            send_message(handle.conn, MSG_STALL, stall_s=stall_s)
        except WorkerClosed:
            return False
        return True

    def inject_message_loss(self, chip_id: str, count: int) -> bool:
        """Make a worker swallow its next ``count`` epoch results."""
        handle = self.handles.get(chip_id)
        if handle is None or not handle.up:
            return False
        try:
            send_message(handle.conn, MSG_DROP, count=count)
        except WorkerClosed:
            return False
        return True

    # -- the epoch loop ------------------------------------------------
    def run(self, until_epoch: Optional[int] = None) -> Dict[str, Any]:
        """Run global epochs up to ``until_epoch`` (default: all).

        Returns the fleet report (:meth:`report`).  Workers are always
        shut down -- cleanly when possible, by escalation otherwise --
        before this method returns, so no run leaves orphans.
        """
        stop = self.config.epochs if until_epoch is None else until_epoch
        stop = min(stop, self.config.epochs)
        try:
            for epoch in range(self.epochs_completed, stop):
                self._run_epoch(epoch)
            return self.report()
        finally:
            self._shutdown_all()

    def _run_epoch(self, epoch: int) -> None:
        # Each ladder's rung and where its move log stands, so step 5 can
        # audit every move this epoch makes (restarts, crashes and
        # promotions) and catch one that changed a rung without logging.
        previous_rungs = {
            cid: handle.ladder.rung for cid, handle in self.handles.items()
        }
        logged = {
            cid: len(handle.ladder.transitions)
            for cid, handle in self.handles.items()
        }
        # 1. Recovery: restart everything that is down, at bottom rung.
        # Processes start first and say hello after their (slow) imports
        # and checkpoint restore, so starting them all before awaiting
        # any hello overlaps the spawn latency across chips.
        starting = [h for h in self._sorted_handles() if not h.up]
        for handle in starting:
            self._start_process(handle)
        for handle in starting:
            try:
                self._finish_spawn(handle)
            except ProtocolError as exc:
                self.failures.append([epoch, handle.chip_id, type(exc).__name__])
                continue
            handle.restarts += 1 if handle.ladder.down else 0
            if handle.ladder.down:
                handle.ladder.on_restart(epoch)

        # 2. Scheduled fleet faults.
        self.injector.apply(self, epoch)

        # 3. Clear the grid auction and audit it.
        bids = [
            ChipBid(
                chip_id=h.chip_id,
                bid_w=h.last_bid_w,
                tdp_w=h.spec.tdp_w,
                region=h.spec.region,
            )
            for h in self._sorted_handles()
        ]
        weights = {
            cid: handle.ladder.weight() for cid, handle in self.handles.items()
        }
        grants = clear_grants(self.config.budget, bids, weights)
        current_rungs = {
            cid: handle.ladder.rung for cid, handle in self.handles.items()
        }
        record = self.auditor.audit_epoch(
            epoch, self.config.budget, bids, weights, grants
        )

        # 4. Drive every live chip (with bounded catch-up for laggards).
        results: Dict[str, List[Dict[str, Any]]] = {}
        for handle in self._sorted_handles():
            if not handle.up:
                continue
            try:
                ran = self._drive_chip(handle, epoch, grants[handle.chip_id])
            except ProtocolError as exc:
                self._mark_down(handle, epoch, exc)
                continue
            if ran:
                results[handle.chip_id] = ran

        # 5. Ladder promotions for chips that ended the epoch aligned,
        # then the audit of every ladder move of the epoch.
        for handle in self._sorted_handles():
            if handle.up and handle.completed_epochs == epoch + 1:
                handle.ladder.on_healthy_epoch(epoch)
        self.auditor.audit_moves(
            record,
            previous_rungs,
            {
                cid: handle.ladder.transitions[logged[cid]:]
                for cid, handle in self.handles.items()
            },
            {cid: handle.ladder.rung for cid, handle in self.handles.items()},
        )

        self.rows.append(
            {
                "epoch": epoch,
                "budget_w": self.config.budget.grid_budget_w,
                "bids": {b.chip_id: b.bid_w for b in bids},
                "weights": weights,
                "grants": grants,
                "rungs": current_rungs,
                "down": [
                    h.chip_id for h in self._sorted_handles() if not h.up
                ],
                "results": results,
            }
        )
        self.epochs_completed = epoch + 1
        self._write_manifest()

    def _drive_chip(
        self, handle: WorkerHandle, epoch: int, grant_w: float
    ) -> List[Dict[str, Any]]:
        """Run this chip up to its catch-up bound; returns its results."""
        target = min(
            handle.completed_epochs + self.config.catchup_per_round, epoch + 1
        )
        ran: List[Dict[str, Any]] = []
        while handle.completed_epochs < target:
            chip_epoch = handle.completed_epochs
            reply = request(
                handle.conn,
                MSG_EPOCH,
                {
                    "epoch": chip_epoch,
                    "budget_w": grant_w,
                    "duration_s": self.config.epoch_s,
                },
                matches=lambda m, e=chip_epoch: (
                    m["type"] == MSG_RESULT
                    and m.get("chip_id") == handle.chip_id
                    and m.get("epoch") == e
                ),
                policy=self.config.retry,
                on_other=lambda m: self._sideband(handle, m),
            )
            result = {
                key: reply[key]
                for key in (
                    "chip_id",
                    "epoch",
                    "avg_power_w",
                    "miss_fraction",
                    "next_bid_w",
                    "granted_w",
                    "audit_violations",
                    "tick_index",
                    "sim_time_s",
                    "checkpoint",
                )
            }
            handle.completed_epochs = chip_epoch + 1
            handle.last_bid_w = float(result["next_bid_w"])
            handle.last_checkpoint = result["checkpoint"]
            handle.last_result = result
            ran.append(result)
        return ran

    def _sideband(self, handle: WorkerHandle, message: Dict[str, Any]) -> None:
        """Non-matching traffic during a request: heartbeats or errors."""
        if message["type"] == MSG_ERROR:
            raise WorkerFault(
                f"chip {handle.chip_id}: {message.get('reason')}"
            )
        if message["type"] != MSG_HEARTBEAT:
            # Stale results (possible after retries) are simply dropped;
            # anything else is noise the protocol does not define.
            pass

    def _sorted_handles(self) -> List[WorkerHandle]:
        return [self.handles[cid] for cid in sorted(self.handles)]

    # -- persistence and reporting -------------------------------------
    def _write_manifest(self) -> None:
        chips = {}
        for handle in self._sorted_handles():
            chips[handle.chip_id] = {
                "checkpoint": handle.last_checkpoint,
                "completed_epochs": handle.completed_epochs,
                "restarts": handle.restarts,
                "last_result": handle.last_result,
                "ladder": handle.ladder.snapshot_state(),
            }
        write_fleet_manifest(
            self.fleet_dir,
            fingerprint=self.fingerprint,
            config=self.config.to_json(),
            epochs_completed=self.epochs_completed,
            chips=chips,
            supervisor={
                "rows": self.rows,
                "failures": self.failures,
                "audit": self.auditor.snapshot_state(),
                "injected": self.injector.injected,
                "schedule": self.schedule.to_json(),
            },
        )

    def report(self) -> Dict[str, Any]:
        """The deterministic campaign record (no wall-clock content)."""
        return {
            "schema": FLEET_REPORT_SCHEMA,
            "fingerprint": self.fingerprint,
            "config": self.config.to_json(),
            "epochs_completed": self.epochs_completed,
            "rows": self.rows,
            "chips": {
                handle.chip_id: {
                    "completed_epochs": handle.completed_epochs,
                    "restarts": handle.restarts,
                    "ladder_transitions": [
                        list(t) for t in handle.ladder.transitions
                    ],
                    "last_result": handle.last_result,
                }
                for handle in self._sorted_handles()
            },
            "audit": {
                "records": self.auditor.snapshot_state(),
                "violations": self.auditor.violations(),
            },
            "faults_injected": self.injector.stats(),
            "failures": self.failures,
            "total_restarts": sum(
                handle.restarts for handle in self.handles.values()
            ),
        }

    def _shutdown_all(self) -> None:
        """Stop every worker: polite shutdown, then escalate. No orphans."""
        for handle in self._sorted_handles():
            if handle.conn is not None:
                try:
                    send_message(handle.conn, MSG_SHUTDOWN)
                except WorkerClosed:
                    pass
        for handle in self._sorted_handles():
            process = handle.process
            if process is None:
                continue
            process.join(timeout=1.5)
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=5.0)
            if handle.conn is not None:
                try:
                    handle.conn.close()
                except OSError:
                    pass
            handle.conn = None
            handle.process = None
            handle.up = False
