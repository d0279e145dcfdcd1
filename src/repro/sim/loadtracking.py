"""Per-entity load tracking (PELT-style), the paper's HRM substitute.

The paper notes that without heartbeat instrumentation, "the time a task
spends in the run-queue in a given epoch of scheduling" -- Paul Turner's
per-entity load tracking, merged in Linux 3.7 -- "can be used in lieu of
heartbeats".  The HL baseline also keys its big/LITTLE migration decisions
off this *activeness* signal.

We track, per task, an exponentially decayed average of its runnable
fraction: 1.0 while the task wants more supply than it receives, less when
it is input-bound and idles part of the tick.
"""

from __future__ import annotations

import math
from typing import Dict

from ..tasks.task import Task


class LoadTracker:
    """Exponentially decayed runnable-fraction average per task.

    Args:
        halflife_s: Time for an old contribution to decay to half weight.
            Linux's PELT halves roughly every 32 ms; that default keeps
            the signal responsive at the framework's invocation periods.
    """

    def __init__(self, halflife_s: float = 0.032):
        if halflife_s <= 0:
            raise ValueError("halflife must be positive")
        self._halflife_s = halflife_s
        self._load: Dict[Task, float] = {}
        # Decay factor depends only on (halflife, dt); dt is fixed per run,
        # so cache the exp() result instead of recomputing it per task-tick.
        self._decay_dt: float = -1.0
        self._decay: float = 0.0

    @staticmethod
    def runnable_fraction(granted_pus: float, demand_pus: float) -> float:
        """Instantaneous runnable fraction for one tick.

        A task granted less than it demands is runnable the whole tick;
        one granted more only occupies the CPU ``demand/granted`` of it.
        """
        if demand_pus <= 0.0:
            return 0.0
        if granted_pus <= 0.0:
            return 1.0
        return min(1.0, demand_pus / granted_pus)

    def update(self, task: Task, granted_pus: float, demand_pus: float, dt: float) -> float:
        """Fold one tick's observation into the task's tracked load."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        instantaneous = self.runnable_fraction(granted_pus, demand_pus)
        if dt != self._decay_dt:
            self._decay = math.exp(-math.log(2.0) * dt / self._halflife_s)
            self._decay_dt = dt
        decay = self._decay
        previous = self._load.get(task, instantaneous)
        updated = decay * previous + (1.0 - decay) * instantaneous
        self._load[task] = updated
        return updated

    def decay_for(self, dt: float) -> float:
        """The cached decay factor for ``dt`` (same expression as update).

        Exposed so the engine's fused dispatch pass and the columnar
        engine's vectorized EWMA fold with the exact float ``update`` uses.
        """
        if dt <= 0:
            raise ValueError("dt must be positive")
        if dt != self._decay_dt:
            self._decay = math.exp(-math.log(2.0) * dt / self._halflife_s)
            self._decay_dt = dt
        return self._decay

    def update_many(self, pairs) -> None:
        """Bulk write of externally computed loads (columnar engine).

        ``pairs`` is an iterable of ``(task, load)``; insertion order
        follows the iterable, matching the scalar dispatch order when the
        caller supplies it that way.
        """
        self._load.update(pairs)

    def load(self, task: Task) -> float:
        """Tracked load in [0, 1]; 0 for never-seen tasks."""
        return self._load.get(task, 0.0)

    def forget(self, task: Task) -> None:
        self._load.pop(task, None)
