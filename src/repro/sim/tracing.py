"""Structured event tracing for simulations.

The kernel modules of the paper were debugged through ftrace-style event
logs; the simulator offers the same visibility: a typed event stream of
everything that changes system state (V-F transitions, migrations, power
gating, chip power-state changes), queryable and exportable as JSON
lines.  Tracing is opt-in: :func:`attach_tracer` sets ``sim.tracer``, and
the engine's control surface records each change as it takes effect, so
a dropped or refused request leaves no event and a delayed DVFS write is
recorded when it lands.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Deque, Dict, List, Optional


@dataclass(frozen=True)
class TraceEvent:
    """One state-changing occurrence."""

    time_s: float
    kind: str  #: "dvfs" | "migration" | "power_gate" | "chip_state" | custom
    subject: str  #: cluster id, task name, ...
    detail: Dict[str, object] = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


class Tracer:
    """Collects :class:`TraceEvent` instances with bounded memory.

    Args:
        capacity: Maximum retained events; the oldest are dropped first
            (a long simulation can emit millions of events).
    """

    def __init__(self, capacity: int = 100_000):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self._events: Deque[TraceEvent] = deque(maxlen=capacity)
        self.dropped = 0

    # -- recording ------------------------------------------------------------
    def emit(self, event: TraceEvent) -> None:
        if len(self._events) == self._events.maxlen:
            self.dropped += 1
        self._events.append(event)

    def record(self, time_s: float, kind: str, subject: str, **detail: object) -> None:
        self.emit(TraceEvent(time_s=time_s, kind=kind, subject=subject, detail=detail))

    # -- queries --------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._events)

    def events(
        self,
        kind: Optional[str] = None,
        subject: Optional[str] = None,
        since: float = float("-inf"),
    ) -> List[TraceEvent]:
        return [
            e
            for e in self._events
            if (kind is None or e.kind == kind)
            and (subject is None or e.subject == subject)
            and e.time_s >= since
        ]

    def count(self, kind: Optional[str] = None) -> int:
        return len(self.events(kind=kind))

    # -- export ---------------------------------------------------------------
    def to_jsonl(self) -> str:
        return "\n".join(e.to_json() for e in self._events)

    def write_jsonl(self, path: str) -> int:
        """Write all events to ``path``; returns the event count."""
        with open(path, "w") as handle:
            for event in self._events:
                handle.write(event.to_json())
                handle.write("\n")
        return len(self._events)


def attach_tracer(sim, tracer: Optional[Tracer] = None) -> Tracer:
    """Trace a :class:`~repro.sim.engine.Simulation`'s state changes.

    Sets ``sim.tracer``: every DVFS transition the regulator starts, every
    migration that moved its task and every power-gate change emits an
    event.  Returns the tracer.  A simulation takes one tracer: attaching
    again raises ``RuntimeError``.
    """
    if sim.tracer is not None:
        raise RuntimeError("a tracer is already attached to this simulation")
    # ``is None``, not ``or``: an empty Tracer is falsy (``__len__``).
    sim.tracer = Tracer() if tracer is None else tracer
    return sim.tracer
