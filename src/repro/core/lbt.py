"""Load Balancing and Task migration (LBT) module (paper section 3.3).

Given the market's steady state, the LBT module searches for a better
task-to-core mapping:

* **Load balancing** moves a task from a cluster's constrained core to the
  most over-supplied unconstrained core *within the same cluster*, letting
  the cluster drop its V-F level.
* **Task migration** moves a task from a constrained core to the most
  over-supplied unconstrained core of *another cluster*, exploiting
  heterogeneity.

Decision flow (paper Figure 3): when every task is expected to meet its
demand in the steady state of the current mapping, the goal is power --
pick the candidate with the largest reduction in aggregate spending that
does not degrade ``perf``.  Otherwise the goal is performance -- among the
tasks with unsatisfied demand on constrained cores, improve the
supply/demand ratio of the highest-priority one without harming
higher-priority tasks; ties break on spending.

To bound overhead, only tasks on constrained cores contemplate moving, and
only the single most over-supplied unconstrained core per target cluster
is considered (section 3.3); at most one movement is approved per
invocation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..sim.engine import VEC_MIN_TASKS
from .estimation import (
    MappingEstimate,
    SteadyStateEstimator,
    perf_improves,
    perf_not_worse,
)
from .market import Market
from .vecestimate import BatchMappingEvaluator, CandidateBlock

_EPS = 1e-9


@dataclass
class CandidateVerdict:
    """Decision quantities for one candidate move (scalar path)."""

    perf_improves: bool
    perf_not_worse: bool
    mover_ratio_current: float
    mover_ratio_candidate: float
    spend_current: float
    spend_candidate: float


@dataclass
class MoveDecision:
    """One approved task movement.

    ``current`` and ``candidate`` are the steady-state estimates the move
    was decided on.  The scalar sweep fills them; the batched sweep
    leaves them ``None``, and ``PPMGovernor._execute_move`` builds them
    only when a failed move is held for retry.
    """

    task_id: str
    source_core_id: str
    target_core_id: str
    mode: str  #: "power" or "performance"
    current: Optional[MappingEstimate] = None
    candidate: Optional[MappingEstimate] = None

    @property
    def spend_saving(self) -> float:
        return self.current.spend - self.candidate.spend


def _first_lexmax(ok, *keys) -> Optional[int]:
    """First index attaining the lexicographic maximum of ``keys`` over ``ok``.

    The array image of a scan that keeps the first candidate whose key
    tuple is strictly greater than the best so far.
    """
    idx = np.flatnonzero(ok)
    if not len(idx):
        return None
    for key in keys:
        values = key[idx]
        idx = idx[values == values.max()]
    return int(idx[0])


class LBTModule:
    """Proposes (at most) one task movement per invocation.

    Args:
        market: The live market.
        estimator: Steady-state estimator bound to the same market.
        min_spend_saving_frac: Minimum relative spending reduction for a
            power-mode move to be worth the migration cost; guards against
            churn on estimation noise.
    """

    def __init__(
        self,
        market: Market,
        estimator: SteadyStateEstimator,
        min_spend_saving_frac: float = 0.05,
        unsatisfied_rounds_to_move: int = 3,
    ):
        self._market = market
        self._estimator = estimator
        self._min_saving_frac = min_spend_saving_frac
        self._unsat_rounds = unsatisfied_rounds_to_move
        #: Candidate mappings evaluated over the run (Table 7's overhead
        #: unit of work).
        self.evaluations = 0
        # Per-proposal caches: the market is frozen while a proposal is
        # being evaluated, so demands and constrained cores are pure.
        self._core_demand_cache: Optional[Dict[str, float]] = None
        self._constrained_cache: Optional[Dict[str, object]] = None
        self._target_cache: Optional[Dict[Tuple[str, Optional[str]], Optional[str]]] = None
        # Epoch-cached batch evaluator: persists across proposals so its
        # structural per-cluster arrays survive between governor epochs;
        # begin_proposal() refreshes the demand-dependent state.
        self._batch_eval: Optional[BatchMappingEvaluator] = None

    # -- helpers --------------------------------------------------------------
    def _priorities(self) -> Dict[str, int]:
        return {tid: agent.priority for tid, agent in self._market.tasks.items()}

    def _core_demand(self, core_id: str) -> float:
        cache = self._core_demand_cache
        if cache is None:
            return self._market.core_demand(core_id)
        demand = cache.get(core_id)
        if demand is None:
            demand = self._market.core_demand(core_id)
            cache[core_id] = demand
        return demand

    def _constrained_core(self, cluster_id: str):
        cache = self._constrained_cache
        if cache is None:
            return self._market.constrained_core(cluster_id)
        if cluster_id in cache:
            return cache[cluster_id]
        market = self._market
        cluster = market.clusters[cluster_id]
        populated = [
            cid for cid in cluster.core_ids if market._tasks_by_core[cid]
        ]
        constrained = (
            market.cores[max(populated, key=self._core_demand)]
            if populated
            else None
        )
        cache[cluster_id] = constrained
        return constrained

    def _most_oversupplied_unconstrained_core(
        self, cluster_id: str, exclude_core_id: Optional[str] = None
    ) -> Optional[str]:
        """Target-core heuristic: lowest-demand non-constrained core.

        All cores of a cluster share the same supply, so the core with the
        smallest summed demand is the most over-supplied one.  The
        constrained core is excluded unless it is the only choice.
        """
        cache = self._target_cache
        key = (cluster_id, exclude_core_id)
        if cache is not None and key in cache:
            return cache[key]
        market = self._market
        cluster = market.clusters[cluster_id]
        constrained = self._constrained_core(cluster_id)
        candidates = [
            cid
            for cid in cluster.core_ids
            if cid != exclude_core_id
            and (constrained is None or cid != constrained.core_id)
        ]
        if not candidates:
            candidates = [cid for cid in cluster.core_ids if cid != exclude_core_id]
        target = min(candidates, key=self._core_demand) if candidates else None
        if cache is not None:
            cache[key] = target
        return target

    def _movers_on_constrained_core(
        self, cluster_id: str, only_unsatisfied: bool, excluded: frozenset
    ) -> Tuple[Optional[str], List[str]]:
        """(constrained core id, task ids that contemplate moving)."""
        market = self._market
        constrained = self._constrained_core(cluster_id)
        if constrained is None:
            return None, []
        agents = [
            a
            for a in market.tasks_on_core(constrained.core_id)
            if a.task_id not in excluded
        ]
        if only_unsatisfied:
            agents = [
                a for a in agents if a.unsatisfied_rounds >= self._unsat_rounds
            ]
        return constrained.core_id, [a.task_id for a in agents]

    # -- proposal logic ---------------------------------------------------------
    def _propose(
        self, cross_cluster: bool, exclude_tasks: frozenset
    ) -> Optional[MoveDecision]:
        """Memoized wrapper: market state is frozen for the whole search."""
        self._estimator.begin_batch()
        self._core_demand_cache = {}
        self._constrained_cache = {}
        self._target_cache = {}
        try:
            return self._propose_inner(cross_cluster, exclude_tasks)
        finally:
            self._estimator.end_batch()
            self._core_demand_cache = None
            self._constrained_cache = None
            self._target_cache = None

    def _propose_inner(
        self, cross_cluster: bool, exclude_tasks: frozenset
    ) -> Optional[MoveDecision]:
        market = self._market
        tasks_by_core = market._tasks_by_core
        populated = [
            cid
            for cid, cluster in market.clusters.items()
            if any(tasks_by_core[core_id] for core_id in cluster.core_ids)
        ]
        if not populated:
            return None
        # Batched evaluation above the same population threshold the
        # market kernels use, so a given run takes one path consistently
        # (per-task ratios are bit-identical either way; aggregate spends
        # can differ in the last ulp, hence the shared gate).
        if len(market.tasks) >= VEC_MIN_TASKS:
            return self._propose_batched(populated, cross_cluster, exclude_tasks)
        return self._propose_scalar(populated, cross_cluster, exclude_tasks)

    def _blocks(
        self,
        populated: List[str],
        cross_cluster: bool,
        performance_mode: bool,
        exclude_tasks: frozenset,
    ) -> Iterator[CandidateBlock]:
        """Every candidate move, as one block per source cluster.

        A block's candidates are its movers times its target cores,
        mover-major: the order of the nested cluster, mover and target
        loops.
        """
        market = self._market
        for cluster_id in populated:
            source_core, movers = self._movers_on_constrained_core(
                cluster_id, only_unsatisfied=performance_mode, excluded=exclude_tasks
            )
            if source_core is None or not movers:
                continue
            if cross_cluster:
                # Performance mode may wake an empty cluster (the ramp-up
                # path to big).  Power mode may do so only when spend is
                # energy-aware: waking the more efficient cluster to sleep
                # the hungry one is then a genuine saving, whereas a pure
                # market-price estimate would see empty clusters as
                # spuriously cheap.
                may_wake = performance_mode or self._estimator.energy_aware
                targets = [
                    cid
                    for cid in market.clusters
                    if cid != cluster_id and (may_wake or cid in populated)
                ]
            else:
                targets = [cluster_id]
            target_cores = []
            for target_cluster in targets:
                exclude = source_core if target_cluster == cluster_id else None
                target_core = self._most_oversupplied_unconstrained_core(
                    target_cluster, exclude_core_id=exclude
                )
                if target_core is not None and target_core != source_core:
                    target_cores.append(target_core)
            if target_cores:
                yield CandidateBlock(cluster_id, source_core, movers, target_cores)

    def _propose_batched(
        self, populated: List[str], cross_cluster: bool, exclude_tasks: frozenset
    ) -> Optional[MoveDecision]:
        """The sweep as arrays: block verdicts, then array reductions."""
        batch = self._batch_eval
        if batch is None:
            batch = self._batch_eval = BatchMappingEvaluator(
                self._market, self._estimator
            )
        batch.begin_proposal()
        performance_mode = not batch.all_satisfied(populated)
        blocks = list(
            self._blocks(populated, cross_cluster, performance_mode, exclude_tasks)
        )
        if not blocks:
            return None
        verdicts = batch.evaluate_blocks(blocks)
        self.evaluations += len(verdicts.spend_candidate)
        # The scalar loop's rules: the first candidate wins ties.
        if performance_mode:
            winner = _first_lexmax(
                verdicts.perf_improves
                & (
                    verdicts.mover_ratio_candidate
                    > verdicts.mover_ratio_current + _EPS
                ),
                verdicts.mover_priority,
                verdicts.mover_ratio_candidate,
                -verdicts.spend_candidate,
            )
        else:
            saving = verdicts.spend_current - verdicts.spend_candidate
            winner = _first_lexmax(
                (
                    saving
                    > self._min_saving_frac * np.maximum(verdicts.spend_current, _EPS)
                )
                & verdicts.perf_not_worse,
                saving,
            )
        if winner is None:
            return None
        for block in blocks:
            if winner < block.size:
                break
            winner -= block.size
        mover, target = divmod(winner, len(block.target_cores))
        return MoveDecision(
            task_id=block.movers[mover],
            source_core_id=block.source_core,
            target_core_id=block.target_cores[target],
            mode="performance" if performance_mode else "power",
        )

    def _propose_scalar(
        self, populated: List[str], cross_cluster: bool, exclude_tasks: frozenset
    ) -> Optional[MoveDecision]:
        """The sweep one candidate at a time, estimates kept for the winner."""
        overall = self._estimator.evaluate_current(populated)
        performance_mode = not overall.all_satisfied
        candidates: List[Tuple[str, str, str]] = [
            (task_id, block.source_core, target_core)
            for block in self._blocks(
                populated, cross_cluster, performance_mode, exclude_tasks
            )
            for task_id in block.movers
            for target_core in block.target_cores
        ]
        if not candidates:
            return None
        self.evaluations += len(candidates)
        priorities = self._priorities()
        verdicts = [
            self._scalar_verdict(task_id, target_core, priorities, performance_mode)
            for task_id, _source_core, target_core in candidates
        ]

        best_power: Optional[Tuple[float, int]] = None
        best_perf: Optional[Tuple[Tuple[int, float, float], int]] = None
        for idx, ((task_id, _source, _target), (verdict, _cur, _cand)) in enumerate(
            zip(candidates, verdicts)
        ):
            if performance_mode:
                if not verdict.perf_improves:
                    continue
                mover_prio = priorities[task_id]
                mover_ratio = verdict.mover_ratio_candidate
                if mover_ratio <= verdict.mover_ratio_current + _EPS:
                    continue
                key = (mover_prio, mover_ratio, -verdict.spend_candidate)
                if best_perf is None or key > best_perf[0]:
                    best_perf = (key, idx)
            else:
                saving = verdict.spend_current - verdict.spend_candidate
                if saving <= self._min_saving_frac * max(verdict.spend_current, _EPS):
                    continue
                if not verdict.perf_not_worse:
                    continue
                if best_power is None or saving > best_power[0]:
                    best_power = (saving, idx)

        if performance_mode:
            if best_perf is None:
                return None
            winner = best_perf[1]
            mode = "performance"
        else:
            if best_power is None:
                return None
            winner = best_power[1]
            mode = "power"
        task_id, source_core, target_core = candidates[winner]
        _verdict, current, candidate = verdicts[winner]
        return MoveDecision(
            task_id=task_id,
            source_core_id=source_core,
            target_core_id=target_core,
            mode=mode,
            current=current,
            candidate=candidate,
        )

    def _scalar_verdict(
        self,
        task_id: str,
        target_core: str,
        priorities: Dict[str, int],
        performance_mode: bool,
    ) -> Tuple[CandidateVerdict, MappingEstimate, MappingEstimate]:
        """Scalar-path verdict (estimates kept for the decision record)."""
        current, candidate = self._estimator.evaluate_move(task_id, target_core)
        if performance_mode:
            improves = perf_improves(current.ratios, candidate.ratios, priorities)
            not_worse = improves
        else:
            improves = False
            not_worse = perf_not_worse(current.ratios, candidate.ratios, priorities)
        return (
            CandidateVerdict(
                perf_improves=improves,
                perf_not_worse=not_worse,
                mover_ratio_current=current.ratios.get(task_id, 0.0),
                mover_ratio_candidate=candidate.ratios.get(task_id, 0.0),
                spend_current=current.spend,
                spend_candidate=candidate.spend,
            ),
            current,
            candidate,
        )

    def propose_load_balance(
        self, exclude_tasks: frozenset = frozenset()
    ) -> Optional[MoveDecision]:
        """One intra-cluster move, or ``None`` when nothing improves.

        ``exclude_tasks`` holds tasks in their post-migration cooldown --
        moving a task again before its market state has settled is the
        main source of ping-pong instability.
        """
        return self._propose(cross_cluster=False, exclude_tasks=exclude_tasks)

    def propose_migration(
        self, exclude_tasks: frozenset = frozenset()
    ) -> Optional[MoveDecision]:
        """One inter-cluster move, or ``None`` when nothing improves."""
        return self._propose(cross_cluster=True, exclude_tasks=exclude_tasks)
