"""The grid-budget market: one more level of the paper's hierarchy.

The chip agent splits TDP across clusters by auctioning allowance
against demand; the fleet supervisor splits a *grid* power budget across
chips the same way.  Each epoch every live chip submits a bid (the watts
it wants next epoch, derived from its measured power and QoS misses) and
the market clears grants under three rules:

* **Conservation** -- the grants never sum to more than the grid budget.
  This holds by construction for any subset of dead chips and is audited
  every epoch by :class:`FleetBudgetAuditor`, exactly like
  :class:`~repro.core.audit.MarketAuditor` audits the chip market.
* **Region pricing** -- following "Performance-Based Pricing in
  Multi-Core Geo-Distributed Cloud Computing" (PAPERS.md), each chip's
  share under scarcity is weighted by the reciprocal of its region's
  electricity price: cheap-region chips clear more watts per unit of
  demand than expensive-region ones.
* **Readmission ladder** -- a chip returning from a crash re-enters the
  auction at a fraction of its claim and climbs one rung per healthy
  epoch with hysteresis (:class:`ReadmissionLadder`), built on the same
  :class:`~repro.core.ladder.Ladder` as the chip's own supervisors, so
  recovery can never oscillate the budget split.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.ladder import Ladder, Move

_EPS = 1e-9

#: One logged ladder move: ``(epoch, from_rung, to_rung)``, ``None`` = DOWN.
Transition = Tuple[int, Optional[int], Optional[int]]


class FleetBudgetInvariantError(AssertionError):
    """An audited fleet epoch violated a budget invariant."""


@dataclass(frozen=True)
class FleetBudgetConfig:
    """Parameters of the grid-budget auction.

    Attributes:
        grid_budget_w: Total watts the grid allots the fleet per epoch.
        min_grant_w: Floor grant for a participating chip (scaled down
            proportionally if the floors alone would overrun the budget,
            so conservation always wins over the floor).
        ladder_weights: Claim fractions of the readmission rungs, bottom
            to top; strictly increasing, ending at 1.0 (full share).
        hysteresis_epochs: Consecutive healthy epochs required on a rung
            before the next promotion; promotions move one rung at most.
        region_prices: Relative electricity price per region name;
            unlisted regions price at 1.0.
    """

    grid_budget_w: float
    min_grant_w: float = 0.25
    ladder_weights: Tuple[float, ...] = (0.25, 0.5, 0.75, 1.0)
    hysteresis_epochs: int = 1
    region_prices: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.grid_budget_w <= 0:
            raise ValueError("grid budget must be positive")
        if self.min_grant_w < 0:
            raise ValueError("min grant must be non-negative")
        if not self.ladder_weights:
            raise ValueError("ladder needs at least one rung")
        if any(
            b <= a for a, b in zip(self.ladder_weights, self.ladder_weights[1:])
        ):
            raise ValueError("ladder weights must be strictly increasing")
        if not 0.0 < self.ladder_weights[0] <= 1.0:
            raise ValueError("ladder weights must lie in (0, 1]")
        if self.ladder_weights[-1] != 1.0:
            raise ValueError("the top rung must be full share (1.0)")
        if self.hysteresis_epochs < 1:
            raise ValueError("hysteresis must be at least one epoch")
        for region, price in dict(self.region_prices).items():
            if price <= 0:
                raise ValueError(f"region {region!r} price must be positive")

    def price_of(self, region: str) -> float:
        return float(dict(self.region_prices).get(region, 1.0))


@dataclass(frozen=True)
class ChipBid:
    """One chip's demand for the next epoch."""

    chip_id: str
    bid_w: float
    tdp_w: float
    region: str = "local"

    def __post_init__(self) -> None:
        if self.bid_w < 0:
            raise ValueError("bids must be non-negative")
        if self.tdp_w <= 0:
            raise ValueError("chip TDP must be positive")

    @property
    def demand_w(self) -> float:
        """The chip can never usefully claim more than its own TDP."""
        return min(self.bid_w, self.tdp_w)


class ReadmissionLadder:
    """Per-chip share ladder: DOWN -> bottom rung -> ... -> full share.

    ``rung`` is ``None`` while the chip is down (excluded from the
    auction), else an index into ``config.ladder_weights``.  A fresh
    chip starts at the top; a restarted chip re-enters at the bottom and
    climbs at most one rung per healthy epoch, each promotion gated on
    ``hysteresis_epochs`` consecutive healthy epochs at the current rung.
    Any failure drops straight to DOWN and resets the streak, so a chip
    flapping between alive and dead can never oscillate its grant above
    the bottom rung.

    The rungs of the underlying :class:`~repro.core.ladder.Ladder` are
    the weight indices, full share (calmest) first: a failure is
    ``drop``, a restart ``reenter`` and a healthy epoch ``relax``.
    """

    def __init__(self, config: FleetBudgetConfig):
        self.config = config
        top = len(config.ladder_weights) - 1
        self._ladder = Ladder(range(top, -1, -1), recovery=config.hysteresis_epochs)
        #: (epoch, from_rung, to_rung) history; ``None`` encodes DOWN.
        self.transitions: List[Transition] = []

    @property
    def rung(self) -> Optional[int]:
        return self._ladder.rung

    @property
    def healthy_streak(self) -> int:
        return self._ladder.streak

    @property
    def down(self) -> bool:
        return self.rung is None

    def weight(self) -> Optional[float]:
        """Claim fraction at the current rung; ``None`` while down."""
        if self.rung is None:
            return None
        return self.config.ladder_weights[self.rung]

    def _log(self, epoch: int, move: Move) -> None:
        if move is not None:
            self.transitions.append((epoch, *move))

    def on_failure(self, epoch: int) -> None:
        """The chip crashed or stalled: out of the auction entirely."""
        self._log(epoch, self._ladder.drop())

    def on_restart(self, epoch: int) -> None:
        """The chip is back from its checkpoint: bottom-rung probation."""
        self._log(epoch, self._ladder.reenter())

    def on_healthy_epoch(self, epoch: int) -> None:
        """One aligned, fault-free epoch: at most one promotion."""
        self._log(epoch, self._ladder.relax())

    def snapshot_state(self) -> Dict[str, object]:
        return {
            "rung": self.rung,
            "healthy_streak": self.healthy_streak,
            "transitions": [list(t) for t in self.transitions],
        }

    def restore_state(self, state: Mapping[str, object]) -> None:
        self._ladder.restore(state["rung"], int(state["healthy_streak"]))
        self.transitions = [
            (int(e), f if f is None else int(f), t if t is None else int(t))
            for e, f, t in state["transitions"]
        ]


def clear_grants(
    config: FleetBudgetConfig,
    bids: Sequence[ChipBid],
    weights: Mapping[str, Optional[float]],
) -> Dict[str, float]:
    """Clear one epoch of the grid auction; returns watts per chip id.

    ``weights`` carries each chip's ladder fraction (``None`` = down,
    excluded).  Clearing is price-weighted water-filling: every
    participant first receives its floor (floors are scaled down together
    if they alone would overrun the budget), then the remainder is
    distributed proportionally to each chip's outstanding claim divided
    by its region's electricity price, capping at the claim, until either
    the budget or the claims are exhausted.  Deterministic: chips are
    processed in sorted id order and the result is independent of wall
    time.  Conservation (``sum(grants) <= grid_budget_w``) holds for any
    subset of down chips by construction.
    """
    ordered = sorted(bids, key=lambda b: b.chip_id)
    if len({b.chip_id for b in ordered}) != len(ordered):
        raise ValueError("duplicate chip id in bids")
    claims: Dict[str, float] = {}
    prices: Dict[str, float] = {}
    for bid in ordered:
        weight = weights.get(bid.chip_id)
        if weight is None:
            continue
        if not 0.0 < weight <= 1.0:
            raise ValueError(
                f"ladder weight for {bid.chip_id!r} must be in (0, 1]"
            )
        claims[bid.chip_id] = bid.demand_w * weight
        prices[bid.chip_id] = config.price_of(bid.region)
    grants = {b.chip_id: 0.0 for b in ordered}
    if not claims:
        return grants

    floors = {cid: min(config.min_grant_w, claims[cid]) for cid in claims}
    floor_total = sum(floors.values())
    if floor_total > config.grid_budget_w:
        scale = config.grid_budget_w / floor_total
        for cid in floors:
            grants[cid] = floors[cid] * scale
        return grants
    for cid in floors:
        grants[cid] = floors[cid]
    remaining = config.grid_budget_w - floor_total

    active = [cid for cid in sorted(claims) if claims[cid] - grants[cid] > _EPS]
    while remaining > _EPS and active:
        scores = {
            cid: (claims[cid] - grants[cid]) / prices[cid] for cid in active
        }
        total_score = sum(scores.values())
        if total_score <= 0.0:
            break
        distributed = 0.0
        for cid in active:
            give = min(
                remaining * scores[cid] / total_score,
                claims[cid] - grants[cid],
            )
            grants[cid] += give
            distributed += give
        remaining -= distributed
        active = [cid for cid in active if claims[cid] - grants[cid] > _EPS]
        if distributed <= _EPS:
            break
    return grants


@dataclass
class FleetAuditRecord:
    """Outcome of auditing one fleet epoch."""

    epoch: int
    budget_w: float
    granted_w: float
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> Dict[str, object]:
        return {
            "epoch": self.epoch,
            "budget_w": self.budget_w,
            "granted_w": self.granted_w,
            "violations": list(self.violations),
        }

    @classmethod
    def from_json(cls, data: Mapping[str, object]) -> "FleetAuditRecord":
        return cls(
            epoch=int(data["epoch"]),
            budget_w=float(data["budget_w"]),
            granted_w=float(data["granted_w"]),
            violations=list(data["violations"]),
        )


def _unlogged(cid: str, old: Optional[int], new: Optional[int]) -> str:
    def name(rung: Optional[int]) -> str:
        return "DOWN" if rung is None else str(rung)

    return f"F5 unlogged move: {cid} moved {name(old)} -> {name(new)}"


class FleetBudgetAuditor:
    """Verifies the grid budget's invariants after every clearing.

    Checked, per epoch:

    F1  Conservation: the grants sum to at most the grid budget.
    F2  No negative grants.
    F3  A down chip (ladder weight ``None``) is granted exactly zero.
    F4  No grant exceeds the chip's ladder-weighted claim.
    F5  Every ladder move of the epoch was logged and legal: a crash to
        DOWN, a restart onto the bottom rung, or a promotion of one rung.

    :meth:`audit_epoch` checks F1--F4 at the clearing and opens the
    epoch's record; :meth:`audit_moves` checks F5 on that record once
    the epoch's promotions are done, so it sees every move, not only the
    restarts before the clearing.  ``strict`` raises
    :class:`FleetBudgetInvariantError` on the first violation; otherwise
    records accumulate for the fleet report, the same split
    :class:`~repro.core.audit.MarketAuditor` offers.
    """

    _AUDIT_EPS = 1e-6

    def __init__(self, strict: bool = False):
        self.strict = strict
        self.records: List[FleetAuditRecord] = []

    def audit_epoch(
        self,
        epoch: int,
        config: FleetBudgetConfig,
        bids: Sequence[ChipBid],
        weights: Mapping[str, Optional[float]],
        grants: Mapping[str, float],
    ) -> FleetAuditRecord:
        granted = sum(grants.values())
        record = FleetAuditRecord(
            epoch=epoch, budget_w=config.grid_budget_w, granted_w=granted
        )
        if granted > config.grid_budget_w + self._AUDIT_EPS:
            record.violations.append(
                f"F1 conservation: granted {granted:.6f} W exceeds grid "
                f"budget {config.grid_budget_w:.6f} W"
            )
        by_id = {bid.chip_id: bid for bid in bids}
        for cid in sorted(grants):
            grant = grants[cid]
            if grant < -self._AUDIT_EPS:
                record.violations.append(
                    f"F2 negative grant: {cid} granted {grant:.6f} W"
                )
            weight = weights.get(cid)
            if weight is None and grant > self._AUDIT_EPS:
                record.violations.append(
                    f"F3 down chip paid: {cid} is down yet granted "
                    f"{grant:.6f} W"
                )
            if weight is not None and cid in by_id:
                claim = by_id[cid].demand_w * weight
                if grant > claim + self._AUDIT_EPS:
                    record.violations.append(
                        f"F4 over-claim: {cid} granted {grant:.6f} W above "
                        f"its weighted claim {claim:.6f} W"
                    )
        self.records.append(record)
        self._check(record)
        return record

    def audit_moves(
        self,
        record: FleetAuditRecord,
        previous_rungs: Mapping[str, Optional[int]],
        moves: Mapping[str, Sequence[Transition]],
        current_rungs: Mapping[str, Optional[int]],
    ) -> FleetAuditRecord:
        """F5 over ``record``'s epoch: the ``(epoch, from, to)`` moves each
        chip's ladder logged must be legal and must chain from its rung in
        ``previous_rungs`` (epoch start) to its rung in ``current_rungs``
        (after promotions).  A break in the chain is a move nobody logged."""
        for cid in sorted(current_rungs):
            rung = previous_rungs[cid]
            for _epoch, prev, cur in moves.get(cid, ()):
                if prev != rung:
                    record.violations.append(_unlogged(cid, rung, prev))
                if prev is None and cur != 0:
                    record.violations.append(
                        f"F5 rung skip: {cid} re-admitted at rung {cur}, "
                        "not the bottom"
                    )
                elif None not in (prev, cur) and cur != prev + 1:
                    record.violations.append(
                        f"F5 rung skip: {cid} moved {prev} -> {cur} in one step"
                    )
                rung = cur
            if rung != current_rungs[cid]:
                record.violations.append(
                    _unlogged(cid, rung, current_rungs[cid])
                )
        self._check(record)
        return record

    def _check(self, record: FleetAuditRecord) -> None:
        if self.strict and record.violations:
            raise FleetBudgetInvariantError(
                f"epoch {record.epoch}: " + "; ".join(record.violations)
            )

    def violations(self) -> List[str]:
        out: List[str] = []
        for record in self.records:
            out.extend(
                f"epoch {record.epoch}: {violation}"
                for violation in record.violations
            )
        return out

    def snapshot_state(self) -> List[Dict[str, object]]:
        return [record.to_json() for record in self.records]

    def restore_state(self, state: Sequence[Mapping[str, object]]) -> None:
        self.records = [FleetAuditRecord.from_json(item) for item in state]
