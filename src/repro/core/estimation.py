"""Steady-state estimation of candidate task mappings (paper section 3.3).

Before moving a task, the LBT module predicts what the market would look
like *after* the move settles: per-task demand (from the off-line profile
when the core type changes), supply (demand-limited, or priority-
proportional when the cluster saturates), price (Equation 2's recursion
``P_{Z+1} = P_Z + P_Z * delta`` per V-F level), and from those the two
comparison metrics:

* ``perf(M)`` -- the priority-lexicographic ordering over supply/demand
  ratios, and
* ``spend(M)`` -- the aggregate steady-state bids, a proxy for power.

A candidate mapping is always compared against the current mapping
*evaluated over the same set of affected clusters*: bids and ratios of
untouched clusters are identical in both mappings and cancel out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from .market import Market

#: demand estimator: (task_id, cluster_id) -> steady-state demand in PUs.
DemandLookup = Callable[[str, str], float]

_EPS = 1e-9


@dataclass
class MappingEstimate:
    """Predicted steady state for one (possibly hypothetical) mapping."""

    ratios: Dict[str, float]  #: capped supply/demand ratio per affected task
    bids: Dict[str, float]  #: steady-state bid per affected task
    levels: Dict[str, int]  #: required V-F level per affected cluster
    spend: float = field(init=False)

    def __post_init__(self) -> None:
        self.spend = sum(self.bids.values())

    @property
    def all_satisfied(self) -> bool:
        return all(r >= 1.0 - _EPS for r in self.ratios.values())

    def unsatisfied_tasks(self) -> List[str]:
        return [t for t, r in self.ratios.items() if r < 1.0 - _EPS]


def perf_improves(
    current: Dict[str, float],
    candidate: Dict[str, float],
    priorities: Dict[str, int],
) -> bool:
    """``perf(M') > perf(M)`` per the paper's definition.

    True iff some task's supply/demand ratio improves while every task of
    strictly higher priority keeps a ratio at least as good.

    Evaluated by one descending-priority sweep: a task qualifies iff it
    improves and every strictly-higher-priority task already swept is not
    worse -- O(k log k) instead of the quadratic all-pairs scan, with
    identical decisions (the LBT calls this once per candidate mapping).
    """
    if not candidate:
        return False
    ordered = sorted(
        candidate.items(), key=lambda item: priorities[item[0]], reverse=True
    )
    above_ok = True  # every strictly-higher-priority task is >= current
    index = 0
    count = len(ordered)
    while index < count:
        prio = priorities[ordered[index][0]]
        group_end = index
        while group_end < count and priorities[ordered[group_end][0]] == prio:
            group_end += 1
        if above_ok:
            for task_id, new_ratio in ordered[index:group_end]:
                if new_ratio > current.get(task_id, 0.0) + _EPS:
                    return True
        for task_id, new_ratio in ordered[index:group_end]:
            if new_ratio < current.get(task_id, 0.0) - _EPS:
                # No lower-priority task can qualify any more.
                return False
        index = group_end
    return False


def perf_equal(current: Dict[str, float], candidate: Dict[str, float]) -> bool:
    return set(current) == set(candidate) and all(
        abs(candidate[t] - current[t]) <= _EPS for t in current
    )


def perf_not_worse(
    current: Dict[str, float],
    candidate: Dict[str, float],
    priorities: Dict[str, int],
) -> bool:
    """``perf(M') >= perf(M)``: strictly better or equal."""
    return perf_equal(current, candidate) or perf_improves(
        current, candidate, priorities
    )


#: energy model: (cluster_id, level_index) -> watts per PU at full load.
EnergyCostLookup = Callable[[str, int], float]


class SteadyStateEstimator:
    """Evaluates hypothetical mappings against the live market state.

    Args:
        market: The live market.
        demand_lookup: Cross-core-type demand estimator (off-line profile).
        energy_cost_lookup: Optional watts-per-PU model per cluster and
            V-F level.  When present, estimated prices are weighted by the
            cluster's energy cost so that ``spend`` comparisons reflect
            the heterogeneity ("migration of the tasks to the most
            efficient cluster").  On the real platform the chip agent's
            inverse-power allowance distribution pushes market prices
            toward exactly this shape; the simulator encodes the
            steady-state result directly (documented substitution).
    """

    def __init__(
        self,
        market: Market,
        demand_lookup: DemandLookup,
        energy_cost_lookup: Optional[EnergyCostLookup] = None,
    ):
        self._market = market
        self._demand_fn = demand_lookup
        self._energy_cost = energy_cost_lookup
        #: Optional vectorized counterparts of ``demand_lookup`` for the
        #: batched LBT sweep.  Each is bit-identical to per-task
        #: ``demand_lookup`` calls, or returns ``None`` when it cannot be
        #: (the caller falls back to them):
        #:
        #: * ``demand_array_fn(task_ids, cluster_id)``: the demands of a
        #:   cluster's resident roster there;
        #: * ``profile_columns_fn(task_ids)``: per-task rows that only the
        #:   tasks' profiles determine, which the sweep keeps row-keyed
        #:   beside its rosters;
        #: * ``cross_demand_fn(demands, rows, src_cluster, dst_cluster)``:
        #:   the demands on ``dst_cluster`` of tasks resident on
        #:   ``src_cluster``, from their demands there and their rows.
        self.demand_array_fn: Optional[Callable[[List[str], str], object]] = None
        self.profile_columns_fn: Optional[Callable[[List[str]], object]] = None
        self.cross_demand_fn: Optional[Callable[..., object]] = None
        # Per-batch caches (see begin_batch): market state is frozen while
        # the LBT enumerates candidates, so every pure lookup is memoised
        # for the duration of one proposal sweep.
        self._batch: Optional[dict] = None

    @property
    def energy_aware(self) -> bool:
        """Whether spend estimates reflect per-cluster energy costs."""
        return self._energy_cost is not None

    # -- batch memoisation ------------------------------------------------------
    def begin_batch(self) -> None:
        """Start a memoised evaluation sweep.

        The LBT module evaluates dozens of candidate mappings against one
        frozen market state; demand lookups, price estimates and whole
        mapping estimates repeat heavily across candidates.  Between
        ``begin_batch`` and ``end_batch`` those pure lookups are cached.
        Callers must not mutate the market while a batch is active.
        """
        self._batch = {
            "demand": {},  # (task_id, cluster_id) -> PUs
            "price": {},  # (cluster_id, target_level) -> price per PU
            "core_demand": {},  # core_id -> unmodified per-core demand sum
            "evaluate": {},  # (frozenset clusters, move items) -> estimate
            "avg_price": None,
            "mean_cost": None,
        }

    def end_batch(self) -> None:
        self._batch = None

    def demand_array(self, task_ids: List[str], cluster_id: str):
        """Vectorized ``_demand`` over a resident roster, or ``None``."""
        fn = self.demand_array_fn
        return None if fn is None else fn(task_ids, cluster_id)

    def profile_columns(self, task_ids: List[str]):
        """Profile rows for :meth:`cross_demand_array`, or ``None``."""
        fn = self.profile_columns_fn
        return None if fn is None else fn(task_ids)

    def cross_demand_array(self, demands, rows, src_cluster: str, dst_cluster: str):
        """Vectorized ``_demand`` on another cluster, or ``None``."""
        fn = self.cross_demand_fn
        if fn is None or rows is None:
            return None
        return fn(demands, rows, src_cluster, dst_cluster)

    def _demand(self, task_id: str, cluster_id: str) -> float:
        batch = self._batch
        if batch is None:
            return self._demand_fn(task_id, cluster_id)
        memo = batch["demand"]
        key = (task_id, cluster_id)
        value = memo.get(key)
        if value is None:
            value = self._demand_fn(task_id, cluster_id)
            memo[key] = value
        return value

    # -- price estimation -----------------------------------------------------
    def _average_price_per_pu(self) -> float:
        """Market-wide average price, the fallback for priceless clusters."""
        batch = self._batch
        if batch is not None and batch["avg_price"] is not None:
            return batch["avg_price"]
        market = self._market
        tasks_by_core = market._tasks_by_core
        total_bids = sum(agent.bid for agent in market.tasks.values())
        total_supply = sum(
            cluster.supply
            for cluster in market.clusters.values()
            if any(tasks_by_core[core_id] for core_id in cluster.core_ids)
        )
        if total_supply <= 0.0:
            price = market.config.bmin
        else:
            price = total_bids / total_supply
        if batch is not None:
            batch["avg_price"] = price
        return price

    def estimate_price(self, cluster_id: str, target_level: int) -> float:
        """Steady-state price per PU on ``cluster_id`` at ``target_level``.

        With an energy model: the chip-wide average price re-weighted by
        the cluster's watts-per-PU at the target level, relative to the
        chip's mean energy cost -- the price structure the allowance
        feedback converges to on real hardware.

        Without one (stand-alone market tests, synthetic chips): Equation
        2's recursion from the current price -- moving up one V-F level
        inflates the price by the tolerance factor (``P_{Z+1} = P_Z + P_Z
        * delta``), moving down deflates it symmetrically.
        """
        batch = self._batch
        if batch is not None:
            cached = batch["price"].get((cluster_id, target_level))
            if cached is not None:
                return cached
        price = self._estimate_price_uncached(cluster_id, target_level)
        if batch is not None:
            batch["price"][(cluster_id, target_level)] = price
        return price

    def _estimate_price_uncached(self, cluster_id: str, target_level: int) -> float:
        cluster = self._market.clusters[cluster_id]
        if self._energy_cost is not None:
            avg_price = self._average_price_per_pu()
            mean_cost = self._mean_energy_cost()
            cost = self._energy_cost(cluster_id, target_level)
            if mean_cost > 0.0 and cost > 0.0:
                return max(avg_price * cost / mean_cost, 0.0)
        constrained = self._market.constrained_core(cluster_id)
        if constrained is not None and constrained.price > 0.0:
            price = constrained.price
        else:
            price = self._average_price_per_pu()
        delta = self._market.config.tolerance
        steps = target_level - cluster.level_index
        if steps >= 0:
            price *= (1.0 + delta) ** steps
        else:
            price *= (1.0 - delta) ** (-steps)
        return max(price, 0.0)

    def _mean_energy_cost(self) -> float:
        """Mean watts-per-PU across clusters at their current levels."""
        assert self._energy_cost is not None
        batch = self._batch
        if batch is not None and batch["mean_cost"] is not None:
            return batch["mean_cost"]
        result = self._mean_energy_cost_uncached()
        if batch is not None:
            batch["mean_cost"] = result
        return result

    def _mean_energy_cost_uncached(self) -> float:
        assert self._energy_cost is not None
        costs = [
            self._energy_cost(cluster_id, cluster.level_index)
            for cluster_id, cluster in self._market.clusters.items()
        ]
        costs = [c for c in costs if c > 0.0]
        if not costs:
            return 0.0
        return sum(costs) / len(costs)

    # -- mapping evaluation -----------------------------------------------------
    def evaluate_current(
        self, cluster_ids: Optional[Iterable[str]] = None
    ) -> MappingEstimate:
        """Steady-state estimate of the mapping as it stands."""
        if cluster_ids is None:
            cluster_ids = [
                cid
                for cid in self._market.clusters
                if self._market.tasks_on_cluster(cid)
            ]
        return self._evaluate_memo(frozenset(cluster_ids), moves={})

    def evaluate_move(
        self, task_id: str, core_id: str
    ) -> Tuple[MappingEstimate, MappingEstimate]:
        """(current, candidate) estimates for moving one task.

        Both estimates cover exactly the source and destination clusters,
        so their ``spend`` and ``ratios`` are directly comparable.
        """
        market = self._market
        if task_id not in market.tasks:
            raise KeyError(f"unknown task {task_id}")
        if core_id not in market.cores:
            raise KeyError(f"unknown core {core_id}")
        affected = frozenset(
            (
                market.cores[market.core_of(task_id)].cluster_id,
                market.cores[core_id].cluster_id,
            )
        )
        current = self._evaluate_memo(affected, moves={})
        candidate = self._evaluate_memo(affected, moves={task_id: core_id})
        return current, candidate

    def _evaluate_memo(
        self, affected_clusters: frozenset, moves: Dict[str, str]
    ) -> MappingEstimate:
        batch = self._batch
        if batch is None:
            return self._evaluate(affected_clusters, moves)
        key = (affected_clusters, tuple(moves.items()))
        memo = batch["evaluate"]
        estimate = memo.get(key)
        if estimate is None:
            estimate = self._evaluate(affected_clusters, moves)
            memo[key] = estimate
        return estimate

    def _core_demand_sum(self, core_id: str, cluster_id: str, tids: List[str]) -> float:
        """Summed steady-state demand of ``tids`` on ``cluster_id``."""
        total = 0.0
        for task_id in tids:
            total += self._demand(task_id, cluster_id)
        return total

    def _evaluate(
        self, affected_clusters: Set[str], moves: Dict[str, str]
    ) -> MappingEstimate:
        market = self._market
        batch = self._batch
        # At most one move per candidate (the LBT evaluates single-task
        # movements); a moved task leaves its source core's list and is
        # appended to the destination core's.
        move_task: Optional[str] = None
        move_core: Optional[str] = None
        source_core: Optional[str] = None
        if moves:
            move_task, move_core = next(iter(moves.items()))
            if len(moves) > 1:
                raise ValueError("estimator evaluates one move at a time")
            source_core = market.core_of(move_task)

        ratios: Dict[str, float] = {}
        bids: Dict[str, float] = {}
        levels: Dict[str, int] = {}
        tasks_by_core = market._tasks_by_core
        for cluster_id in sorted(affected_clusters):
            cluster = market.clusters[cluster_id]
            core_tasks: Dict[str, List[str]] = {}
            core_demands: Dict[str, float] = {}
            for core_id in cluster.core_ids:
                tids = tasks_by_core[core_id]
                modified = False
                if move_task is not None and move_core != source_core:
                    if core_id == source_core:
                        tids = [t for t in tids if t != move_task]
                        modified = True
                    elif core_id == move_core:
                        tids = tids + [move_task]
                        modified = True
                core_tasks[core_id] = tids
                if modified or batch is None:
                    core_demands[core_id] = self._core_demand_sum(
                        core_id, cluster_id, tids
                    )
                else:
                    cached = batch["core_demand"].get(core_id)
                    if cached is None:
                        cached = self._core_demand_sum(core_id, cluster_id, tids)
                        batch["core_demand"][core_id] = cached
                    core_demands[core_id] = cached

            cluster_demand = max(core_demands.values(), default=0.0)
            if cluster_demand <= 0.0:
                levels[cluster_id] = 0
                continue
            # Round demand up to the next supply value (section 3.2.4).
            target_level = cluster.max_index
            for index, supply in enumerate(cluster.supply_ladder):
                if supply >= cluster_demand - _EPS:
                    target_level = index
                    break
            levels[cluster_id] = target_level
            price = self.estimate_price(cluster_id, target_level)

            for core_id, tids in core_tasks.items():
                if not tids:
                    continue
                core_supply = cluster.supply_ladder[target_level]
                core_saturated = core_demands[core_id] > core_supply + _EPS
                priority_sum = sum(market.tasks[t].priority for t in tids)
                for task_id in tids:
                    demand = self._demand(task_id, cluster_id)
                    if not core_saturated:
                        supply = demand
                    else:
                        # Priority-proportional split of the saturated core.
                        supply = core_supply * market.tasks[task_id].priority / priority_sum
                        if demand > 0.0:
                            supply = min(supply, demand)
                    ratios[task_id] = (
                        min(1.0, supply / demand) if demand > 0.0 else 1.0
                    )
                    bids[task_id] = max(supply * price, market.config.bmin)
        return MappingEstimate(ratios=ratios, bids=bids, levels=levels)
