"""Periodic checkpointing and resume for running simulations.

A :class:`CheckpointManager` attaches to a :class:`~repro.sim.Simulation`
(``sim.checkpointer``); the engine calls :meth:`on_tick` at the end of
every tick and the manager writes a crash-consistent checkpoint every
``interval_s`` of simulated time, pruning old files down to ``retention``.
Several managers can share one directory by using distinct ``stream``
labels (the fault campaign gives each governor its own).

A save encodes only the telemetry recorded since the previous one: the
manager keeps the canonical JSON of every tick record it has written,
relying on recorded telemetry being append-only (see
:class:`~repro.sim.metrics.MetricsCollector`).

``resume_from`` is the inverse: given a checkpoint file and a *factory*
that rebuilds the identical simulation (same config, seed, workload,
governor and -- when applicable -- fault schedule), it verifies the
config/seed fingerprint and restores the full state, so continuing the
run is bit-identical to never having stopped.
"""

from __future__ import annotations

import operator
import os
from typing import Any, Callable, Dict, List, Optional, Tuple

from .snapshot import (
    restore_simulation,
    simulation_fingerprint,
    snapshot_simulation,
    tick_record,
)
from .store import (
    CHECKPOINT_GLOB_RE,
    CheckpointEnvelope,
    canonical_json,
    checkpoint_filename,
    read_checkpoint,
    write_checkpoint,
)


class CheckpointManager:
    """Writes periodic, retained checkpoints of one simulation.

    Args:
        directory: Where checkpoint files live (created on first write).
        interval_s: Simulated seconds between checkpoints (rounded to a
            whole number of ticks, at least one).
        retention: How many of this manager's checkpoints to keep; older
            ones are pruned after each successful write.  ``None`` keeps
            everything.
        stream: Optional label distinguishing this run's files when the
            directory is shared (e.g. ``"0-PPM"`` in a campaign).
        fingerprint_extra: Extra identity folded into the fingerprint
            (must match at resume time).
        extra_payload: Extra data stored verbatim in every checkpoint's
            payload under ``"extra"`` (e.g. campaign progress) -- state,
            not identity: it is *not* part of the fingerprint.
    """

    def __init__(
        self,
        directory: str,
        interval_s: float = 1.0,
        retention: Optional[int] = 3,
        stream: Optional[str] = None,
        fingerprint_extra: Any = None,
        extra_payload: Optional[Dict[str, Any]] = None,
    ):
        if interval_s <= 0:
            raise ValueError("checkpoint interval must be positive")
        if retention is not None and retention < 1:
            raise ValueError("retention must be at least 1 (or None)")
        self.directory = directory
        self.interval_s = interval_s
        self.retention = retention
        self.stream = stream
        self.fingerprint_extra = fingerprint_extra
        self.extra_payload = extra_payload
        self.fingerprint: Optional[str] = None
        self.saves = 0
        self._interval_ticks: Optional[int] = None
        #: The tick samples already encoded, and their canonical JSON, one
        #: string per tick.  Holding the samples keeps their identities
        #: from being reused by new objects.
        self._encoded_samples: List[Any] = []
        self._encoded: List[str] = []

    def attach(self, sim) -> "CheckpointManager":
        """Install this manager as ``sim.checkpointer``; returns self."""
        self.fingerprint = simulation_fingerprint(sim, extra=self.fingerprint_extra)
        self._interval_ticks = max(1, round(self.interval_s / sim.dt))
        sim.checkpointer = self
        return self

    def on_tick(self, sim) -> None:
        """Engine hook: save when a whole interval has elapsed."""
        if self._interval_ticks is None:
            return
        if sim.tick_index > 0 and sim.tick_index % self._interval_ticks == 0:
            self.save(sim)

    def save(self, sim) -> str:
        """Write one checkpoint now; returns its path."""
        if self.fingerprint is None:
            self.attach(sim)
        payload = snapshot_simulation(sim, tick_history=False)
        if self.extra_payload is not None:
            payload["extra"] = self.extra_payload
        path = os.path.join(
            self.directory, checkpoint_filename(sim.tick_index, self.stream)
        )
        write_checkpoint(
            path,
            payload,
            fingerprint=self.fingerprint,
            tick_index=sim.tick_index,
            sim_time_s=sim.now,
            samples_json=self._history_json(sim.metrics.samples),
        )
        self.saves += 1
        self._prune()
        return path

    def _history_json(self, samples: List[Any]) -> str:
        """Canonical JSON of the tick records of ``samples``.

        Encodes only the ticks recorded since the previous save.  Starts
        over when ``samples`` no longer begins with the very sample
        objects already encoded, as after a restore, which replaces them.
        """
        done = len(self._encoded)
        if len(samples) < done or not all(
            map(operator.is_, self._encoded_samples, samples)
        ):
            self._encoded_samples, self._encoded = [], []
            done = 0
        for sample in samples[done:]:
            self._encoded_samples.append(sample)
            self._encoded.append(canonical_json(tick_record(sample)))
        return "[" + ",".join(self._encoded) + "]"

    def checkpoints(self) -> list:
        """This manager's checkpoint paths (its stream only), oldest first."""
        if not os.path.isdir(self.directory):
            return []
        names = []
        for name in os.listdir(self.directory):
            match = CHECKPOINT_GLOB_RE.match(name)
            if match and match.group("stream") == self.stream:
                names.append(name)
        return [os.path.join(self.directory, name) for name in sorted(names)]

    def _prune(self) -> None:
        if self.retention is None:
            return
        for path in self.checkpoints()[: -self.retention]:
            try:
                os.unlink(path)
            except OSError:  # pragma: no cover - benign race with readers
                pass


def resume_from(
    checkpoint_path: str,
    factory: Callable[[], Any],
    fingerprint_extra: Any = None,
) -> Tuple[Any, CheckpointEnvelope]:
    """Rebuild a simulation via ``factory`` and restore a checkpoint onto it.

    ``factory`` must return a freshly built, never-stepped simulation
    configured identically to the checkpointed run (including an attached
    fault injector when the checkpoint was taken with one).  The
    checkpoint is validated (schema, checksum) and its fingerprint is
    checked against the rebuilt simulation before any state is applied;
    mismatches raise :class:`CheckpointFingerprintError` with the two
    fingerprints named.

    Returns ``(sim, envelope)`` with ``sim`` ready to continue running.
    """
    sim = factory()
    expected = simulation_fingerprint(sim, extra=fingerprint_extra)
    envelope = read_checkpoint(checkpoint_path, expected_fingerprint=expected)
    restore_simulation(sim, envelope.payload)
    return sim, envelope
