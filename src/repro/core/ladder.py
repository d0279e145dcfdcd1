"""One graduated degradation ladder, shared by every supervisor.

Rungs are ordered calmest first and every move is one rung:
:meth:`Ladder.observe` escalates on the next rung's entry score and asks
to relax below the current rung's entry minus ``hysteresis``, and
:meth:`Ladder.relax` steps down after ``recovery`` requests in a row.
The fleet's crash and restart are the named exceptions: ``drop`` takes
the ladder out of service (rung ``None``) and ``reenter`` puts it on the
most defensive rung.  Moves return ``(old, new)``, or ``None`` when
nothing moved.  The type reads no clock and logs nothing; what a rung
means stays with the supervisor that owns the ladder.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping, Optional, Tuple

Move = Optional[Tuple[Optional[Hashable], Optional[Hashable]]]


class Ladder:
    """Rungs ordered calmest to most defensive (an ``Enum`` class iterates
    in definition order), starting on the calmest; ``entry`` maps each
    rung above the calmest to its entry score."""

    def __init__(
        self,
        rungs: Iterable[Hashable],
        entry: Optional[Mapping[Hashable, float]] = None,
        hysteresis: float = 0.0,
        recovery: int = 1,
    ):
        self.rungs = tuple(rungs)
        self._entry = entry or {}
        self._hysteresis = hysteresis
        self._recovery = recovery
        #: The current rung, or ``None`` while out of service.
        self.rung: Optional[Hashable] = self.rungs[0]
        #: Consecutive relax requests since the last move or hold.
        self.streak = 0

    def rank(self, rung: Hashable) -> int:
        """Position of ``rung``, 0 for the calmest."""
        return self.rungs.index(rung)

    def at_least(self, rung: Hashable) -> bool:
        """In service at ``rung`` or at a more defensive one."""
        return self.rung is not None and self.rank(self.rung) >= self.rank(rung)

    def observe(self, score: float) -> Move:
        """Escalate, relax or hold for one score."""
        i = self.rank(self.rung)
        if i + 1 < len(self.rungs) and score >= self._entry[self.rungs[i + 1]]:
            return self.escalate()
        if i > 0 and score < self._entry[self.rung] - self._hysteresis:
            return self.relax()
        self.hold()
        return None

    def hold(self) -> None:
        """Stay on the current rung and reset the streak."""
        self.streak = 0

    def escalate(self) -> Move:
        """Move one rung more defensive; the streak resets even at the top."""
        self.streak = 0
        if self.rung is None or self.rung == self.rungs[-1]:
            return None
        return self._go(self.rungs[self.rank(self.rung) + 1])

    def relax(self) -> Move:
        """Count a relax request; after ``recovery`` in a row, move one rung
        calmer.  The calmest rung keeps counting; out of service, no-op."""
        if self.rung is None:
            return None
        self.streak += 1
        i = self.rank(self.rung)
        if i == 0 or self.streak < self._recovery:
            return None
        return self._go(self.rungs[i - 1])

    def drop(self) -> Move:
        """Take the ladder out of service."""
        return self._go(None)

    def reenter(self) -> Move:
        """Put the ladder on its most defensive rung."""
        return self._go(self.rungs[-1])

    def restore(self, rung: Optional[Hashable], streak: int = 0) -> None:
        """Set the rung (``None``: out of service) and the streak."""
        if rung is not None and rung not in self.rungs:
            raise ValueError(f"{rung!r} is not a rung of this ladder")
        self.rung, self.streak = rung, streak

    def _go(self, rung: Optional[Hashable]) -> Move:
        old, self.rung, self.streak = self.rung, rung, 0
        return None if old == rung else (old, rung)
