"""Deterministic replay with divergence detection.

A *journal* is the per-tick telemetry of a run: one record per tick,
straight from :class:`~repro.sim.metrics.MetricsCollector` (all ticks,
including warmup).  ``replay_from_checkpoint`` rebuilds the run from a
checkpoint, re-executes it to the journal's end, and compares the two
telemetry streams tick for tick.  Because the simulator is deterministic
a clean resume diverges nowhere; any divergence is localized to the
first differing tick and the exact fields that differ.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from .atomicio import atomic_write_text
from .manager import resume_from
from .snapshot import tick_record
from .store import CheckpointCorruptError, canonical_json

JOURNAL_MAGIC = "repro-journal"


def tick_records(metrics) -> List[Dict[str, Any]]:
    """One JSON-safe record per simulated tick, in order.

    Each is the :func:`~repro.checkpoint.snapshot.tick_record` a
    checkpoint stores.  Thermal-enabled runs carry the temperatures, making
    replay divergence detection cover the thermal state too.
    """
    return [tick_record(sample) for sample in metrics.samples]


def write_journal(path: str, records: List[Dict[str, Any]], fingerprint: str, dt: float) -> str:
    """Atomically write a telemetry journal; returns the path written."""
    document = {
        "magic": JOURNAL_MAGIC,
        "fingerprint": fingerprint,
        "dt": dt,
        "records": records,
    }
    return atomic_write_text(path, canonical_json(document))


def read_journal(path: str) -> Dict[str, Any]:
    """Read a journal written by :func:`write_journal`, validating its shape."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointCorruptError(f"journal {path!r} is unreadable: {exc}") from exc
    if not isinstance(document, dict) or document.get("magic") != JOURNAL_MAGIC:
        raise CheckpointCorruptError(
            f"journal {path!r} is not a telemetry journal (missing magic "
            f"{JOURNAL_MAGIC!r})"
        )
    if not isinstance(document.get("records"), list):
        raise CheckpointCorruptError(f"journal {path!r} has no record list")
    return document


def _diff_value(path: str, expected: Any, actual: Any, diffs: List[str]) -> None:
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            if key not in expected:
                diffs.append(f"{path}.{key}: unexpected field {actual[key]!r}")
            elif key not in actual:
                diffs.append(f"{path}.{key}: missing (expected {expected[key]!r})")
            else:
                _diff_value(f"{path}.{key}", expected[key], actual[key], diffs)
    elif isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            diffs.append(
                f"{path}: length {len(actual)} != expected {len(expected)}"
            )
        for index, (exp, act) in enumerate(zip(expected, actual)):
            _diff_value(f"{path}[{index}]", exp, act, diffs)
    elif expected != actual:
        diffs.append(f"{path}: {actual!r} != expected {expected!r}")


def diff_tick_records(
    expected: List[Dict[str, Any]], actual: List[Dict[str, Any]]
) -> Optional[Dict[str, Any]]:
    """First divergent tick between two telemetry streams, or ``None``.

    Returns ``{"tick": i, "diffs": [...]}`` for the first tick whose
    records differ field-by-field; a length mismatch past the common
    prefix counts as divergence at the first uncovered tick.
    """
    for index in range(min(len(expected), len(actual))):
        if expected[index] != actual[index]:
            diffs: List[str] = []
            _diff_value("tick", expected[index], actual[index], diffs)
            return {"tick": index, "diffs": diffs}
    if len(expected) != len(actual):
        tick = min(len(expected), len(actual))
        return {
            "tick": tick,
            "diffs": [
                f"journal has {len(expected)} ticks but replay produced "
                f"{len(actual)}"
            ],
        }
    return None


@dataclass
class ReplayReport:
    """Outcome of one replay-and-compare pass."""

    checkpoint_tick: int
    ticks_compared: int
    first_divergent_tick: Optional[int] = None
    first_divergent_time_s: Optional[float] = None
    diffs: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return self.first_divergent_tick is None

    def describe(self) -> str:
        if self.clean:
            return (
                f"replay clean: {self.ticks_compared} ticks match the journal "
                f"(resumed from tick {self.checkpoint_tick})"
            )
        lines = [
            f"replay DIVERGED at tick {self.first_divergent_tick} "
            f"(t={self.first_divergent_time_s:.3f}s; resumed from tick "
            f"{self.checkpoint_tick}):"
        ]
        lines.extend(f"  {diff}" for diff in self.diffs[:20])
        if len(self.diffs) > 20:
            lines.append(f"  ... and {len(self.diffs) - 20} more field diffs")
        return "\n".join(lines)


def replay_from_checkpoint(
    checkpoint_path: str,
    factory: Callable[[], Any],
    journal_records: List[Dict[str, Any]],
    fingerprint_extra: Any = None,
) -> ReplayReport:
    """Resume from ``checkpoint_path`` and verify against a journal.

    The simulation is rebuilt via ``factory`` (see
    :func:`~repro.checkpoint.manager.resume_from`), restored, and stepped
    until it has produced as many telemetry ticks as ``journal_records``
    holds.  Every tick -- restored prefix and recomputed suffix alike --
    is then compared against the journal.
    """
    sim, envelope = resume_from(
        checkpoint_path, factory, fingerprint_extra=fingerprint_extra
    )
    target_ticks = len(journal_records)
    if envelope.tick_index > target_ticks:
        raise ValueError(
            f"checkpoint is at tick {envelope.tick_index} but the journal "
            f"only covers {target_ticks} ticks; pick an earlier checkpoint"
        )
    while sim.tick_index < target_ticks:
        sim.step()
    actual = tick_records(sim.metrics)
    divergence = diff_tick_records(journal_records, actual)
    report = ReplayReport(
        checkpoint_tick=envelope.tick_index,
        ticks_compared=min(target_ticks, len(actual)),
    )
    if divergence is not None:
        report.first_divergent_tick = divergence["tick"]
        report.first_divergent_time_s = divergence["tick"] * sim.dt
        report.diffs = divergence["diffs"]
    return report
