"""Heart Rate Monitor (HRM) infrastructure.

The paper uses Hoffmann et al.'s Application Heartbeats to let tasks
express performance: a task emits a heartbeat every time its critical
kernel completes a unit of work (a frame, a swaption, ...), and the user
prescribes a reference heart-rate range [min_hr, max_hr].  The power
manager's job is to keep the observed rate inside that range with minimal
energy.

This module reproduces the observable side of HRM: a per-task heartbeat
counter plus a sliding-window rate estimator that governors sample.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Tuple


@dataclass(frozen=True)
class HeartRateRange:
    """The user-prescribed QoS target for one task.

    Attributes:
        min_hr: Lowest acceptable heart rate (hb/s).  The paper's miss
            metric counts time with the observed rate *below* this bound.
        max_hr: Highest useful heart rate; running faster wastes energy.
    """

    min_hr: float
    max_hr: float

    def __post_init__(self) -> None:
        if self.min_hr <= 0 or self.max_hr < self.min_hr:
            raise ValueError("need 0 < min_hr <= max_hr")

    @property
    def target_hr(self) -> float:
        """Midpoint of the range -- the setpoint used for demand conversion."""
        return 0.5 * (self.min_hr + self.max_hr)

    #: Relative tolerance on the range boundaries: a rate that equals a
    #: bound up to float rounding (e.g. a work-limited task pinned at
    #: exactly ``1.05 x`` its target) counts as inside.
    _REL_EPS = 1e-9

    def contains(self, heart_rate: float) -> bool:
        lo = self.min_hr * (1.0 - self._REL_EPS)
        hi = self.max_hr * (1.0 + self._REL_EPS)
        return lo <= heart_rate <= hi

    def below(self, heart_rate: float) -> bool:
        """True when the rate misses the QoS floor (the paper's miss test)."""
        return heart_rate < self.min_hr * (1.0 - self._REL_EPS)

    def scaled(self, factor: float) -> "HeartRateRange":
        """A range scaled by ``factor`` (used to normalise plots)."""
        return HeartRateRange(self.min_hr * factor, self.max_hr * factor)


class HeartRateMonitor:
    """Sliding-window heart-rate estimator over a cumulative beat counter.

    ``record(t, total_beats)`` appends the cumulative heartbeat count at
    time ``t``; ``heart_rate()`` reports the average rate over the trailing
    window.  A short window (default 0.5 s) matches the responsiveness the
    framework needs at its ~32 ms bidding period while still smoothing over
    individual scheduling quanta.
    """

    def __init__(self, window_s: float = 0.5):
        if window_s <= 0:
            raise ValueError("window must be positive")
        self._window_s = window_s
        self._samples: Deque[Tuple[float, float]] = deque()

    @property
    def window_s(self) -> float:
        return self._window_s

    def record(self, t: float, total_beats: float) -> None:
        """Record the cumulative beat count ``total_beats`` at time ``t``."""
        if self._samples and t < self._samples[-1][0]:
            raise ValueError("time must be non-decreasing")
        self._samples.append((t, total_beats))
        horizon = t - self._window_s
        # Keep one sample at/before the horizon so the window stays full.
        while len(self._samples) >= 2 and self._samples[1][0] <= horizon:
            self._samples.popleft()

    def withhold_last(self, total_beats: float) -> None:
        """Replace the newest sample's beat count: its beats were lost."""
        self._samples[-1] = (self._samples[-1][0], total_beats)

    def heart_rate(self) -> float:
        """Average heart rate (hb/s) over the trailing window."""
        if len(self._samples) < 2:
            return 0.0
        t0, b0 = self._samples[0]
        t1, b1 = self._samples[-1]
        if t1 <= t0:
            return 0.0
        return (b1 - b0) / (t1 - t0)

    def reset(self) -> None:
        self._samples.clear()
