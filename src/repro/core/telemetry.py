"""Market telemetry: per-round history of the virtual economy.

The paper's figures about the market's internals (Table 3's allowance
trajectory, Figure 8's savings) need the economy observed over time.
A :class:`MarketRecorder` attaches to a :class:`~repro.core.framework.
PPMGovernor`, which shows it the market at the end of every bid period
that ran a round.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from .agents import ChipPowerState
from .framework import PPMGovernor


@dataclass(frozen=True)
class MarketSnapshot:
    """The market's aggregate state after one bid round."""

    time_s: float
    allowance: float
    chip_state: ChipPowerState
    total_demand: float
    total_supply: float
    bids: Dict[str, float]
    supplies: Dict[str, float]
    demands: Dict[str, float]
    savings: Dict[str, float]
    allowances: Dict[str, float]
    prices: Dict[str, float]


class MarketRecorder:
    """Snapshots a PPM governor's market after every round.

    Usage::

        governor = PPMGovernor()
        recorder = MarketRecorder(governor)
        Simulation(chip, tasks, governor).run(60.0)
        times, savings = recorder.series("savings", "x264")
    """

    def __init__(self, governor: PPMGovernor, capacity: int = 200_000):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        if governor.recorder is not None:
            raise RuntimeError("a market recorder is already attached to this governor")
        self.snapshots: Deque[MarketSnapshot] = deque(maxlen=capacity)
        self.dropped = 0
        self._governor = governor
        governor.recorder = self

    def snapshot(self, time_s: float) -> None:
        """Record the market as it stands at ``time_s``."""
        market = self._governor.market
        result = self._governor.last_round
        snapshot = MarketSnapshot(
            time_s=time_s,
            allowance=market.chip.allowance,
            chip_state=market.chip.state,
            total_demand=result.total_demand if result else 0.0,
            total_supply=result.total_supply if result else 0.0,
            bids={tid: a.bid for tid, a in market.tasks.items()},
            supplies={tid: a.supply for tid, a in market.tasks.items()},
            demands={tid: a.demand for tid, a in market.tasks.items()},
            savings={tid: a.wallet.savings for tid, a in market.tasks.items()},
            allowances={tid: a.wallet.allowance for tid, a in market.tasks.items()},
            prices=dict(result.prices) if result else {},
        )
        if len(self.snapshots) == self.snapshots.maxlen:
            self.dropped += 1
        self.snapshots.append(snapshot)

    # -- queries --------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.snapshots)

    def series(
        self, quantity: str, task_id: Optional[str] = None
    ) -> Tuple[List[float], List[float]]:
        """(times, values) for an aggregate or per-task quantity.

        Aggregates: ``allowance``, ``total_demand``, ``total_supply``.
        Per-task (require ``task_id``): ``bids``, ``supplies``,
        ``demands``, ``savings``, ``allowances``.
        """
        times: List[float] = []
        values: List[float] = []
        for snap in self.snapshots:
            if task_id is None:
                value = getattr(snap, quantity)
                if not isinstance(value, (int, float)):
                    raise KeyError(f"{quantity!r} is not an aggregate quantity")
            else:
                mapping = getattr(snap, quantity)
                if task_id not in mapping:
                    continue
                value = mapping[task_id]
            times.append(snap.time_s)
            values.append(float(value))
        return times, values

    def state_intervals(self) -> List[Tuple[float, ChipPowerState]]:
        """(time, state) at each state change -- Table 3's trajectory."""
        changes: List[Tuple[float, ChipPowerState]] = []
        for snap in self.snapshots:
            if not changes or changes[-1][1] is not snap.chip_state:
                changes.append((snap.time_s, snap.chip_state))
        return changes

    def time_in_state(self, state: ChipPowerState) -> float:
        """Fraction of recorded rounds spent in ``state``."""
        if not self.snapshots:
            return 0.0
        hits = sum(1 for s in self.snapshots if s.chip_state is state)
        return hits / len(self.snapshots)
