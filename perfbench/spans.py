"""Per-layer spans recorded from outside the simulator.

:class:`SpanTracer` replaces, on one live simulation, each instance method
that ``Simulation.step`` calls into with a wrapper that records a span
``(layer, start_ns, end_ns, parent)``.  The ``sim.step`` span is the root
of every tick.  A layer's self time is its span minus its child spans, so
the self times of all layers add up to the root spans exactly.

Nothing under ``src/`` knows about the tracer: it binds to whatever the
simulation holds after ``FaultInjector.attach`` and after the first
``step()`` (the PPM governor builds its LBT module in ``prepare``).  A
method it expects but cannot find raises :class:`HookMissing`, so a
renamed hook fails the run instead of reading as a silent zero.
"""

from __future__ import annotations

import gzip
import json
import os
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.checkpoint import manager as checkpoint_manager
from repro.core.framework import PPMGovernor

#: Every layer a traced pass reports, in report order.
LAYERS: Tuple[str, ...] = (
    "sim.step",
    "sim.placement",
    "core.admission",
    "governor",
    "core.market",
    "core.lbt",
    "sim.sync",
    "core.audit",
    "hw.chip",
    "sim.dispatch",
    "hw.thermal",
    "hw.sensor",
    "core.powerest",
    "sim.metrics",
    "checkpoint",
    "checkpoint.snapshot",
    "checkpoint.write",
)

ROOT = "sim.step"

#: (span name, start ns, end ns, index of the parent span or -1)
Span = Tuple[str, int, int, int]


class HookMissing(RuntimeError):
    """A method the tracer must wrap does not exist."""


class SpanTracer:
    """Records spans for one or more simulations, one at a time."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: (simulation name, index of its first span), in run order.
        self.sims: List[Tuple[str, int]] = []
        self.checkpoint_bytes = 0
        self.checkpoint_writes = 0
        self._stack = [-1]
        self._undo: List[Tuple[object, str, bool, object]] = []

    # -- installation --------------------------------------------------------------
    def _wrap(self, owner: object, attr: str, layer: str, active: bool = True) -> None:
        fn = getattr(owner, attr, None)
        if not callable(fn):
            raise HookMissing(f"{type(owner).__name__}.{attr} (layer {layer})")
        if not active:
            return  # the layer is off in this simulation: its calls stay 0
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer, start, end, stack[-1])

        own = vars(owner)
        self._undo.append((owner, attr, attr in own, own.get(attr)))
        setattr(owner, attr, traced)

    def _count_checkpoint_bytes(self, write: Callable[..., str]) -> Callable[..., str]:
        def write_and_count(*args, **kwargs) -> str:
            path = write(*args, **kwargs)
            self.checkpoint_bytes += os.path.getsize(path)
            self.checkpoint_writes += 1
            return path

        return write_and_count

    def install(self, sim, name: str) -> None:
        """Wrap every layer of ``sim``; undo with :meth:`uninstall`."""
        self.sims.append((name, len(self.spans)))
        wrap = self._wrap
        wrap(sim, "step", ROOT)
        for attr in ("_retire_inactive", "_ensure_placed", "_apply_power_gating"):
            wrap(sim, attr, "sim.placement")
        if sim.arrivals is not None:
            wrap(sim.arrivals, "on_tick", "core.admission")
        governor = sim.governor
        wrap(governor, "on_tick", "governor")
        if isinstance(governor, PPMGovernor):
            wrap(governor.market, "run_round", "core.market")
            if governor.lbt is None:
                raise HookMissing("PPMGovernor.lbt is unset after prepare()")
            wrap(governor.lbt, "propose_migration", "core.lbt")
            wrap(governor.lbt, "propose_load_balance", "core.lbt")
        wrap(sim, "sync", "sim.sync")
        wrap(sim, "_run_audit", "core.audit", active=sim.auditor is not None)
        wrap(sim.chip, "tick", "hw.chip")
        wrap(sim, "_dispatch", "sim.dispatch")
        wrap(sim, "_step_thermal", "hw.thermal", active=sim.thermal is not None)
        wrap(sim, "_read_sensor", "hw.sensor")
        if sim.estimation is not None:
            wrap(sim.estimation, "on_tick", "core.powerest")
        wrap(sim.metrics, "record", "sim.metrics")
        wrap(sim.energy, "record", "sim.metrics")
        if sim.checkpointer is not None:
            wrap(sim.checkpointer, "on_tick", "checkpoint")
            wrap(checkpoint_manager, "snapshot_simulation", "checkpoint.snapshot")
            self._undo.append(
                (checkpoint_manager, "write_checkpoint", True, checkpoint_manager.write_checkpoint)
            )
            checkpoint_manager.write_checkpoint = self._count_checkpoint_bytes(
                checkpoint_manager.write_checkpoint
            )
            wrap(checkpoint_manager, "write_checkpoint", "checkpoint.write")

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._undo:
            owner, attr, owned, original = self._undo.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- results ---------------------------------------------------------------------
    def layer_totals(self) -> Dict[str, Dict[str, int]]:
        """Per layer: ``calls``, inclusive ``total_ns`` and ``self_ns``."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for _name, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals = {layer: {"calls": 0, "total_ns": 0, "self_ns": 0} for layer in LAYERS}
        for index, (name, start, end, parent) in enumerate(spans):
            if parent < 0 and name != ROOT:
                raise RuntimeError(f"span {name!r} ran outside a {ROOT} span")
            entry = totals[name]
            entry["calls"] += 1
            entry["total_ns"] += end - start
            entry["self_ns"] += end - start - child_ns[index]
        return totals

    def write(self, path: str) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        bounds = [start for _name, start in self.sims[1:]] + [len(self.spans)]
        with gzip.open(path, "wt", compresslevel=1) as out:
            index = 0
            for (sim_name, _first), end_index in zip(self.sims, bounds):
                sim_json = json.dumps(sim_name)
                while index < end_index:
                    name, start, end, parent = self.spans[index]
                    out.write(
                        f'{{"sim":{sim_json},"id":{index},"parent":{parent},'
                        f'"name":"{name}","start_ns":{start},"end_ns":{end}}}\n'
                    )
                    index += 1


def self_time_gap(totals: Dict[str, Dict[str, int]]) -> Optional[float]:
    """|sum of layer self times - root span time| / root span time."""
    root_ns = totals[ROOT]["total_ns"]
    if root_ns == 0:
        return None
    self_sum = sum(entry["self_ns"] for entry in totals.values())
    return abs(self_sum - root_ns) / root_ns
