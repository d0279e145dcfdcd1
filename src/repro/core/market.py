"""The virtual marketplace: one supply-demand round at a time.

The market is deliberately independent of the simulator: it trades in
abstract task/core/cluster identifiers and consumes a plain
:class:`MarketObservations` snapshot each round.  This is what lets the
paper's running examples (Tables 1-3) be reproduced verbatim in tests, and
what the PPM governor adapts onto the simulation engine.

Round protocol (sections 3.2.1-3.2.3, validated against Tables 1-3):

1. Sync hardware state; clusters whose V-F transition just completed enter
   the *observing* state.
2. Chip agent: if every cluster is actively trading, update the global
   allowance from last round's chip-wide demand/supply and the current
   power reading (demand acts with one round of lag -- the chip agent
   reacts to what the market expressed in the previous round).
3. Distribute allowances hierarchically.
4. Task agents bid (Equation 1), except in frozen clusters where bids and
   savings stay untouched until the new supply has been observed.
5. Core agents discover prices and sell supply pro rata to the bids.
   An observing cluster adopts the new price as its base price.
6. Cluster agents check the constrained core for intolerable inflation or
   deflation and request a one-level DVFS step; the request freezes the
   cluster's bids until the new supply is observed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..sim.engine import VEC_MIN_TASKS
from .agents import (
    ChipAgent,
    ChipPowerState,
    ClusterAgent,
    ClusterFreeze,
    CoreAgent,
    TaskAgent,
    distribute_allowance,
)
from .config import MarketConfig
from . import vecmarket


@dataclass
class MarketObservations:
    """Snapshot of the world the market trades against this round.

    Attributes:
        demands: Current demand ``d_t`` per task (PUs), already converted
            from heart rates by the caller (Table 4).
        cluster_level: Applied V-F level index per cluster.
        cluster_in_transition: Whether the cluster's regulator is still
            mid-transition (bids stay frozen).
        chip_power_w: Total chip power ``W``.
        cluster_power_w: Per-cluster power ``W_v``.
    """

    demands: Dict[str, float]
    cluster_level: Dict[str, int]
    cluster_in_transition: Dict[str, bool] = field(default_factory=dict)
    chip_power_w: float = 0.0
    cluster_power_w: Dict[str, float] = field(default_factory=dict)


@dataclass
class RoundResult:
    """Outcome of one market round."""

    allocations: Dict[str, float]  #: supply ``s_t`` purchased per task
    level_requests: Dict[str, int]  #: cluster -> requested V-F level index
    chip_state: ChipPowerState
    allowance: float
    prices: Dict[str, float]  #: price per core
    frozen_clusters: Set[str]
    total_demand: float  #: chip demand ``D`` (sum of constrained-core demands)
    total_supply: float  #: chip supply ``S`` (sum of cluster supplies)


class Market:
    """Registry of agents plus the round engine."""

    def __init__(self, config: Optional[MarketConfig] = None):
        self.config = config or MarketConfig()
        self.tasks: Dict[str, TaskAgent] = {}
        self.cores: Dict[str, CoreAgent] = {}
        self.clusters: Dict[str, ClusterAgent] = {}
        self.chip = ChipAgent(
            allowance=0.0, wth=self.config.wth, wtdp=self.config.wtdp
        )
        self._placement: Dict[str, str] = {}  # task_id -> core_id
        # Incremental per-core index over ``_placement``: task ids per
        # core, kept in task-registration order (the order a full scan of
        # ``_placement.items()`` would yield) so float reductions over a
        # core's agents are bit-identical to the scan they replace.
        self._tasks_by_core: Dict[str, List[str]] = {}
        self._task_seq: Dict[str, int] = {}
        self._seq_counter: int = 0
        self._prev_total_demand: Optional[float] = None
        self._prev_total_supply: Optional[float] = None
        self._prev_shortfall: Optional[float] = None
        self.rounds_run = 0
        #: Bumped on every membership/placement mutation (add, remove,
        #: move, restore).  Anything derived purely from ``_tasks_by_core``
        #: and per-task priorities (the LBT evaluator's structural arrays)
        #: may be cached against this stamp.
        self.structure_stamp = 0
        # Clearing's structural gather -- (stamp, agents, core_ix,
        # cluster_ix, priority, slot_cores) in cluster -> core ->
        # registration order -- reused while the stamp holds.
        self._clearing_struct: Optional[tuple] = None
        self._round_struct: Optional[tuple] = None

    # ------------------------------------------------------------------
    # Topology and placement registry
    # ------------------------------------------------------------------
    def add_cluster(
        self, cluster_id: str, core_ids: List[str], supply_ladder: List[float]
    ) -> ClusterAgent:
        if cluster_id in self.clusters:
            raise ValueError(f"duplicate cluster {cluster_id}")
        agent = ClusterAgent(
            cluster_id=cluster_id,
            core_ids=list(core_ids),
            supply_ladder=list(supply_ladder),
        )
        self.clusters[cluster_id] = agent
        for core_id in core_ids:
            if core_id in self.cores:
                raise ValueError(f"duplicate core {core_id}")
            self.cores[core_id] = CoreAgent(core_id=core_id, cluster_id=cluster_id)
            self._tasks_by_core[core_id] = []
        return agent

    def add_task(self, task_id: str, priority: int, core_id: str) -> TaskAgent:
        if task_id in self.tasks:
            raise ValueError(f"duplicate task {task_id}")
        if core_id not in self.cores:
            raise KeyError(f"unknown core {core_id}")
        agent = TaskAgent(
            task_id=task_id, priority=priority, bid=self.config.initial_bid
        )
        self.tasks[task_id] = agent
        self._placement[task_id] = core_id
        self._task_seq[task_id] = self._seq_counter
        self._seq_counter += 1
        self._tasks_by_core[core_id].append(task_id)  # newest seq: append
        self.structure_stamp += 1
        self._ensure_allowance_pool()
        return agent

    def remove_task(self, task_id: str) -> None:
        """Remove a task, keeping the books balanced when it vanishes mid-round.

        A task can disappear between bid and settle (it exited, or its
        cluster was hot-unplugged and the engine retired it).  Its wallet
        simply leaves circulation -- allowances are re-distributed from
        the global pool every round, so no money leaks -- but two
        invariants need guarding on the way out: the global allowance
        must stay at/above the ``bmin`` floor for the *remaining* tasks
        (I6), and the pool must stay finite even if the vanished agent
        carried a corrupted balance.
        """
        self.tasks.pop(task_id, None)
        core_id = self._placement.pop(task_id, None)
        if core_id is not None:
            self._tasks_by_core[core_id].remove(task_id)
        self._task_seq.pop(task_id, None)
        self.structure_stamp += 1
        if not self.tasks:
            return
        floor = self.config.bmin * len(self.tasks)
        if not math.isfinite(self.chip.allowance):
            self.chip.allowance = max(
                floor, 10.0 * self.config.initial_bid * len(self.tasks)
            )
        elif self.chip.allowance < floor:
            self.chip.allowance = floor

    def move_task(self, task_id: str, core_id: str) -> None:
        """Update the market's view of a migration; agent state persists."""
        if task_id not in self.tasks:
            raise KeyError(f"unknown task {task_id}")
        if core_id not in self.cores:
            raise KeyError(f"unknown core {core_id}")
        previous = self._placement[task_id]
        if previous == core_id:
            return
        self._placement[task_id] = core_id
        self._tasks_by_core[previous].remove(task_id)
        self._insert_in_seq_order(core_id, task_id)
        self.structure_stamp += 1

    def _insert_in_seq_order(self, core_id: str, task_id: str) -> None:
        """Insert into a core's list keeping registration order.

        A ``dict`` keeps a moved task at its original position, so the
        index must too; core populations are small, so a linear scan from
        the tail beats maintaining a parallel key list.
        """
        bucket = self._tasks_by_core[core_id]
        seq = self._task_seq[task_id]
        index = len(bucket)
        while index > 0 and self._task_seq[bucket[index - 1]] > seq:
            index -= 1
        bucket.insert(index, task_id)

    def _rebuild_core_index(self) -> Dict[str, List[str]]:
        """The per-core index a full ``_placement`` scan would produce."""
        rebuilt: Dict[str, List[str]] = {core_id: [] for core_id in self.cores}
        for task_id, core_id in self._placement.items():
            rebuilt[core_id].append(task_id)
        return rebuilt

    def core_index_consistent(self) -> bool:
        """Whether the incremental per-core index matches a fresh rebuild."""
        return self._rebuild_core_index() == self._tasks_by_core

    def core_of(self, task_id: str) -> str:
        return self._placement[task_id]

    def tasks_on_core(self, core_id: str) -> List[TaskAgent]:
        tasks = self.tasks
        return [tasks[tid] for tid in self._tasks_by_core[core_id]]

    def tasks_on_cluster(self, cluster_id: str) -> List[TaskAgent]:
        agents: List[TaskAgent] = []
        tasks = self.tasks
        for core_id in self.clusters[cluster_id].core_ids:
            for tid in self._tasks_by_core[core_id]:
                agents.append(tasks[tid])
        return agents

    def core_demand(self, core_id: str) -> float:
        """``D_c``: summed demand of the tasks mapped to a core."""
        return sum(agent.demand for agent in self.tasks_on_core(core_id))

    def constrained_core(self, cluster_id: str) -> Optional[CoreAgent]:
        """The cluster's highest-demand core (``None`` if task-free)."""
        cluster = self.clusters[cluster_id]
        populated = [
            cid for cid in cluster.core_ids if self.tasks_on_core(cid)
        ]
        if not populated:
            return None
        return self.cores[max(populated, key=self.core_demand)]

    def cluster_demand(self, cluster_id: str) -> float:
        """``D_v``: the demand of the cluster's constrained core."""
        constrained = self.constrained_core(cluster_id)
        return self.core_demand(constrained.core_id) if constrained else 0.0

    def _floor_price_descent(
        self,
        cluster: ClusterAgent,
        constrained: CoreAgent,
        agents: Optional[List[TaskAgent]] = None,
        demand: Optional[float] = None,
    ) -> int:
        """Deflation detection once bids have hit the ``bmin`` floor.

        The paper argues that when the constrained core's demand is below
        lower supply levels, "the price ... will fall till the bid price
        hits the minimal bid value bmin ... and the system stabilizes at
        the minimum frequency" (section 3.2.4).  Once every bid sits at
        the floor the price can no longer fall relative to the base, so
        the deflation signal disappears; this rule carries the descent
        through: step down while the next-lower level still covers the
        constrained core's demand.
        """
        if cluster.level_index == 0:
            return 0
        if agents is None:
            agents = self.tasks_on_core(constrained.core_id)
        if not agents:
            return 0
        if any(agent.bid > self.config.bmin * 1.01 for agent in agents):
            return 0
        if demand is None:
            demand = self.core_demand(constrained.core_id)
        if demand <= cluster.supply_ladder[cluster.level_index - 1]:
            return -1
        return 0

    def _allowance_growth_useful(
        self, cluster_demands: Optional[Dict[str, float]] = None
    ) -> bool:
        """True while extra money could actually buy more supply.

        Some cluster must have its constrained core demanding more than
        the current supply *and* sit below its maximum V-F level;
        otherwise higher bids cannot trigger any supply increase and
        growing the allowance only inflates prices.  (Per-task shortages
        on a core whose demand fits are an allocation matter the existing
        bids resolve without new money.)
        """
        for cluster in self.clusters.values():
            if cluster.level_index >= cluster.max_index:
                continue
            demand = (
                cluster_demands[cluster.cluster_id]
                if cluster_demands is not None
                else self.cluster_demand(cluster.cluster_id)
            )
            if demand > cluster.supply * 1.02:
                return True
        return False

    #: Redenomination threshold: quantity-theory neutrality means scaling
    #: all money *and* all prices by a common factor leaves every real
    #: allocation unchanged, so we use it purely to keep floats healthy.
    _RENORM_ABOVE = 1e6

    def _renormalize_money(self) -> None:
        base_scale = max(
            1.5 * self.config.initial_bid * max(len(self.tasks), 1), 1.0
        )
        if self.chip.allowance <= self._RENORM_ABOVE * base_scale:
            return
        factor = self.chip.allowance / base_scale
        self.chip.allowance /= factor
        for agent in self.tasks.values():
            agent.bid = max(self.config.bmin, agent.bid / factor)
            agent.wallet.allowance /= factor
            agent.wallet.savings /= factor
        for core in self.cores.values():
            core.price /= factor
            if core.base_price is not None:
                core.base_price /= factor

    def _ensure_allowance_pool(self) -> None:
        """Bootstrap the global allowance when tasks first appear."""
        if self.chip.allowance <= 0.0 and self.tasks:
            if self.config.initial_allowance is not None:
                self.chip.allowance = self.config.initial_allowance
            else:
                self.chip.allowance = 10.0 * self.config.initial_bid * len(self.tasks)

    # ------------------------------------------------------------------
    # Snapshot/restore (checkpointing)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Dict[str, object]:
        """All mutable market state, JSON-serialisable (see repro.checkpoint)."""
        return {
            "tasks": [
                {
                    "task_id": agent.task_id,
                    "priority": agent.priority,
                    "allowance": agent.wallet.allowance,
                    "savings": agent.wallet.savings,
                    "bid": agent.bid,
                    "demand": agent.demand,
                    "supply": agent.supply,
                    "unsatisfied_rounds": agent.unsatisfied_rounds,
                }
                for agent in self.tasks.values()
            ],
            "cores": {
                core_id: {"price": core.price, "base_price": core.base_price}
                for core_id, core in self.cores.items()
            },
            "clusters": {
                cluster_id: {
                    "level_index": cluster.level_index,
                    "freeze": cluster.freeze.value,
                }
                for cluster_id, cluster in self.clusters.items()
            },
            "chip": {
                "allowance": self.chip.allowance,
                "state": self.chip.state.value,
                "last_delta": self.chip.last_delta,
            },
            "placement": [
                [task_id, core_id] for task_id, core_id in self._placement.items()
            ],
            "prev_total_demand": self._prev_total_demand,
            "prev_total_supply": self._prev_total_supply,
            "prev_shortfall": self._prev_shortfall,
            "rounds_run": self.rounds_run,
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Apply a :meth:`snapshot_state` onto this market.

        Clusters and cores must already be registered (``add_cluster`` ran,
        i.e. the governor's ``prepare``); task agents are rebuilt wholesale
        in snapshot order.
        """
        from .money import Wallet

        missing = set(state["clusters"]) - set(self.clusters)
        if missing:
            raise KeyError(
                f"market snapshot references unregistered clusters {sorted(missing)}"
            )
        self.tasks = {}
        self._placement = {}
        self._tasks_by_core = {core_id: [] for core_id in self.cores}
        self._task_seq = {}
        self._seq_counter = 0
        for tstate in state["tasks"]:
            agent = TaskAgent(
                task_id=tstate["task_id"],
                priority=tstate["priority"],
                wallet=Wallet(
                    allowance=tstate["allowance"], savings=tstate["savings"]
                ),
                bid=tstate["bid"],
                demand=tstate["demand"],
                supply=tstate["supply"],
                unsatisfied_rounds=tstate["unsatisfied_rounds"],
            )
            self.tasks[agent.task_id] = agent
        for core_id, cstate in state["cores"].items():
            core = self.cores[core_id]
            core.price = cstate["price"]
            core.base_price = cstate["base_price"]
        for cluster_id, cstate in state["clusters"].items():
            cluster = self.clusters[cluster_id]
            cluster.level_index = cstate["level_index"]
            cluster.freeze = ClusterFreeze(cstate["freeze"])
        self.chip.allowance = state["chip"]["allowance"]
        self.chip.state = ChipPowerState(state["chip"]["state"])
        self.chip.last_delta = state["chip"]["last_delta"]
        for task_id, core_id in state["placement"]:
            self._placement[task_id] = core_id
            self._task_seq[task_id] = self._seq_counter
            self._seq_counter += 1
            self._tasks_by_core[core_id].append(task_id)
        self._prev_total_demand = state["prev_total_demand"]
        self._prev_total_supply = state["prev_total_supply"]
        self._prev_shortfall = state["prev_shortfall"]
        self.rounds_run = state["rounds_run"]
        self.structure_stamp += 1

    # ------------------------------------------------------------------
    # Vectorized clearing (steps 3-5 of the round protocol)
    # ------------------------------------------------------------------
    def _run_clearing_vectorized(
        self,
        obs: MarketObservations,
        core_agents: Dict[str, List[TaskAgent]],
        cluster_agents: Dict[str, List[TaskAgent]],
    ):
        """Allowance distribution, bidding, pricing and purchase as kernels.

        Bit-exact with the scalar steps it replaces: elementwise wallet
        arithmetic is IEEE-identical and every per-core reduction is an
        in-order ``bincount`` fold (see :mod:`repro.core.vecmarket`).
        Also folds in ``note_round_outcome``, which the caller then skips.
        """
        import numpy as np

        cfg = self.config

        # Gather agents in the order the scalar loops visit them:
        # cluster -> core -> per-core registration order.  The membership
        # part (agents, slot indices, priorities) is pure placement
        # structure, cached against the structure stamp; per-round slot
        # state (supply, freeze masks) is O(cores) and rebuilt each call.
        clusters = list(self.clusters.values())
        struct = self._clearing_struct
        if struct is None or struct[0] != self.structure_stamp:
            agents: List[TaskAgent] = []
            core_ix_list: List[int] = []
            cluster_ix_list: List[int] = []
            slot_cores: List[CoreAgent] = []
            for cluster_index, cluster in enumerate(clusters):
                for core_id in cluster.core_ids:
                    slot = len(slot_cores)
                    slot_cores.append(self.cores[core_id])
                    for agent in core_agents[core_id]:
                        agents.append(agent)
                        core_ix_list.append(slot)
                        cluster_ix_list.append(cluster_index)
            struct = (
                self.structure_stamp,
                agents,
                np.asarray(core_ix_list, dtype=np.intp),
                np.asarray(cluster_ix_list, dtype=np.intp),
                np.asarray([float(a.priority) for a in agents]),
                slot_cores,
            )
            self._clearing_struct = struct
        _stamp, agents, core_ix, cluster_ix, priority, slot_cores = struct
        slot_supply: List[float] = []
        slot_bidding: List[bool] = []  # cluster ACTIVE: bids may change
        slot_pricing: List[bool] = []  # cluster not AWAITING: price rediscovered
        for cluster in clusters:
            bidding = cluster.freeze is ClusterFreeze.ACTIVE
            pricing = cluster.freeze is not ClusterFreeze.AWAITING
            for _core_id in cluster.core_ids:
                slot_supply.append(cluster.supply)
                slot_bidding.append(bidding)
                slot_pricing.append(pricing)

        n_cores = len(slot_cores)
        bid = np.asarray([a.bid for a in agents])
        demand = np.asarray([a.demand for a in agents])
        supply = np.asarray([a.supply for a in agents])
        savings = np.asarray([a.wallet.savings for a in agents])
        unsatisfied = np.asarray(
            [a.unsatisfied_rounds for a in agents], dtype=np.int64
        )
        old_price = np.asarray([c.price for c in slot_cores])
        supplies = np.asarray(slot_supply)
        can_bid = np.asarray(slot_bidding)[core_ix]
        price_mask = np.asarray(slot_pricing)

        # 3. Hierarchical allowance distribution (same weight rule as
        #    ``distribute_allowance``; per-cluster weights stay scalar).
        populated = [
            ci for ci, cluster in enumerate(clusters)
            if cluster_agents[cluster.cluster_id]
        ]
        weights: Dict[int, float] = {}
        if obs.chip_power_w > 0.0 and len(populated) > 1:
            for ci in populated:
                weights[ci] = max(
                    0.0,
                    obs.chip_power_w
                    - obs.cluster_power_w.get(clusters[ci].cluster_id, 0.0),
                )
        if not weights or sum(weights.values()) <= 0.0:
            weights = {ci: 1.0 for ci in populated}
        total_weight = sum(weights.values())
        cluster_allowance = np.zeros(len(clusters))
        for ci in populated:
            cluster_allowance[ci] = (
                self.chip.allowance * weights[ci] / total_weight
            )
        allowance = vecmarket.share_allowance(priority, cluster_ix, cluster_allowance)

        # 4. Bidding (Equation 1) on actively-trading clusters only.
        new_bid, new_savings = vecmarket.settle_bids(
            bid,
            demand,
            supply,
            old_price[core_ix],
            allowance,
            savings,
            cfg.bmin,
            cfg.savings_cap_fraction,
        )
        bid = np.where(can_bid, new_bid, bid)
        savings = np.where(can_bid, new_savings, savings)

        # 5. Price discovery and pro-rata purchase; AWAITING clusters keep
        #    last round's prices and allocations.
        discovered = vecmarket.clear_prices(bid, core_ix, n_cores, supplies)
        price = np.where(price_mask, discovered, old_price)
        supply = np.where(
            price_mask[core_ix],
            vecmarket.grants_at_prices(bid, core_ix, price),
            supply,
        )

        # Persistence counters (``note_round_outcome``; nothing between
        # here and the scalar call site reads them).
        unsatisfied = vecmarket.update_unsatisfied_rounds(unsatisfied, demand, supply)

        # Scatter agent state back (one fused pass).
        has_agents = np.zeros(n_cores, dtype=bool)
        has_agents[core_ix] = True
        for agent, b, s, al, sp, u in zip(
            agents,
            bid.tolist(),
            savings.tolist(),
            allowance.tolist(),
            supply.tolist(),
            unsatisfied.tolist(),
        ):
            agent.bid = b
            wallet = agent.wallet
            wallet.savings = s
            wallet.allowance = al
            agent.supply = sp
            agent.unsatisfied_rounds = u

        # Scatter core prices, mirroring ``discover_price``'s base-price
        # adoption (only where a fresh price was actually discovered).
        price_list = price.tolist()
        for slot, core in enumerate(slot_cores):
            if not slot_pricing[slot]:
                continue
            p = price_list[slot]
            core.price = p
            if (
                has_agents[slot]
                and (core.base_price is None or core.base_price <= 0.0)
                and p > 0.0
            ):
                core.base_price = p

        allocations = {
            a.task_id: sp for a, sp in zip(agents, supply.tolist())
        }
        prices = {
            core.core_id: price_list[slot]
            for slot, core in enumerate(slot_cores)
        }
        for cluster in clusters:
            if cluster.freeze is ClusterFreeze.OBSERVING:
                for core_id in cluster.core_ids:
                    self.cores[core_id].reset_base_price()
                cluster.freeze = ClusterFreeze.ACTIVE
        return allocations, prices

    # ------------------------------------------------------------------
    # The round engine
    # ------------------------------------------------------------------
    def run_round(self, obs: MarketObservations) -> RoundResult:
        cfg = self.config

        # 1. Sync hardware state; promote AWAITING -> OBSERVING when the
        #    regulator reports the transition complete.
        observing: Set[str] = set()
        for cluster in self.clusters.values():
            level = obs.cluster_level.get(cluster.cluster_id)
            if level is not None:
                cluster.level_index = max(0, min(cluster.max_index, level))
            if cluster.freeze is ClusterFreeze.AWAITING and not obs.cluster_in_transition.get(
                cluster.cluster_id, False
            ):
                cluster.freeze = ClusterFreeze.OBSERVING
                observing.add(cluster.cluster_id)

        # Ingest demands (``d if d > 0.0 else 0.0`` is ``max(0.0, d)``).
        get_demand = obs.demands.get
        for task_id, agent in self.tasks.items():
            d = get_demand(task_id)
            if d is not None:
                agent.demand = d if d > 0.0 else 0.0

        # Demands and placement are now fixed for the rest of the round, so
        # gather the per-core agent lists, per-core demand sums (same fold
        # order as ``core_demand``) and constrained cores exactly once.
        # The agent lists and per-cluster populated-core lists are pure
        # placement structure, cached against the structure stamp.
        tasks = self.tasks
        rstruct = self._round_struct
        if rstruct is None or rstruct[0] != self.structure_stamp:
            core_agents_c: Dict[str, List[TaskAgent]] = {
                core_id: [tasks[tid] for tid in tids]
                for core_id, tids in self._tasks_by_core.items()
            }
            cluster_agents_c: Dict[str, List[TaskAgent]] = {}
            populated_cores_c: Dict[str, List[str]] = {}
            for cluster_id, cluster in self.clusters.items():
                gathered: List[TaskAgent] = []
                for core_id in cluster.core_ids:
                    gathered.extend(core_agents_c[core_id])
                cluster_agents_c[cluster_id] = gathered
                populated_cores_c[cluster_id] = [
                    cid for cid in cluster.core_ids if core_agents_c[cid]
                ]
            rstruct = (
                self.structure_stamp,
                core_agents_c,
                cluster_agents_c,
                populated_cores_c,
            )
            self._round_struct = rstruct
        _rstamp, core_agents, cluster_agents, populated_cores = rstruct
        core_demands: Dict[str, float] = {
            core_id: sum(agent.demand for agent in agents)
            for core_id, agents in core_agents.items()
        }
        constrained_cores: Dict[str, Optional[CoreAgent]] = {}
        cluster_demands: Dict[str, float] = {}
        for cluster_id, cluster in self.clusters.items():
            populated = populated_cores[cluster_id]
            if populated:
                constrained = self.cores[max(populated, key=core_demands.__getitem__)]
                constrained_cores[cluster_id] = constrained
                cluster_demands[cluster_id] = core_demands[constrained.core_id]
            else:
                constrained_cores[cluster_id] = None
                cluster_demands[cluster_id] = 0.0

        total_demand = 0.0
        total_supply = 0.0
        supply_shortfall = 0.0
        for cluster in self.clusters.values():
            if not cluster_agents[cluster.cluster_id]:
                continue
            cluster_demand = cluster_demands[cluster.cluster_id]
            total_demand += cluster_demand
            total_supply += cluster.supply
            supply_shortfall += max(0.0, cluster_demand - cluster.supply)

        # 2. Chip agent (suspended while any cluster is frozen, and reacting
        #    to the previous round's demand/supply).  More money is only
        #    useful while some cluster both leaves a task under-supplied
        #    and still has V-F headroom to sell more.
        all_active = all(
            c.freeze is ClusterFreeze.ACTIVE for c in self.clusters.values()
        )
        if all_active and self.tasks:
            floor = cfg.bmin * len(self.tasks)
            self.chip.update_allowance(
                chip_power_w=obs.chip_power_w,
                total_demand=(
                    self._prev_total_demand
                    if self._prev_total_demand is not None
                    else total_demand
                ),
                supply_shortfall=(
                    self._prev_shortfall
                    if self._prev_shortfall is not None
                    else supply_shortfall
                ),
                floor=floor,
                growth_useful=self._allowance_growth_useful(cluster_demands),
            )
            self._renormalize_money()
        else:
            self.chip.classify(obs.chip_power_w)

        use_vec = len(self.tasks) >= VEC_MIN_TASKS
        if use_vec:
            # Steps 3-5 plus the persistence counters, as array kernels.
            allocations, prices = self._run_clearing_vectorized(
                obs, core_agents, cluster_agents
            )
        else:
            # 3. Hierarchical allowance distribution.
            distribute_allowance(
                global_allowance=self.chip.allowance,
                chip_power_w=obs.chip_power_w,
                cluster_power_w=obs.cluster_power_w,
                cluster_task_agents=cluster_agents,
            )

            # 4. Bidding (frozen clusters keep bids and savings untouched).
            for cluster in self.clusters.values():
                if cluster.bids_frozen:
                    continue
                for core_id in cluster.core_ids:
                    core = self.cores[core_id]
                    for agent in core_agents[core_id]:
                        agent.place_bid(
                            last_price=core.price,
                            bmin=cfg.bmin,
                            cap_fraction=cfg.savings_cap_fraction,
                        )

            # 5. Price discovery and purchase.  A cluster still AWAITING its
            #    transition keeps last round's prices and allocations.
            allocations = {}
            prices = {}
            for cluster in self.clusters.values():
                supply = cluster.supply
                for core_id in cluster.core_ids:
                    core = self.cores[core_id]
                    agents = core_agents[core_id]
                    if cluster.freeze is ClusterFreeze.AWAITING:
                        prices[core_id] = core.price
                        for agent in agents:
                            allocations[agent.task_id] = agent.supply
                        continue
                    if not agents:
                        core.price = 0.0
                        prices[core_id] = 0.0
                        continue
                    price = core.discover_price([a.bid for a in agents], supply)
                    prices[core_id] = price
                    for agent in agents:
                        agent.supply = agent.bid / price if price > 0.0 else 0.0
                        allocations[agent.task_id] = agent.supply
                if cluster.freeze is ClusterFreeze.OBSERVING:
                    for core_id in cluster.core_ids:
                        self.cores[core_id].reset_base_price()
                    cluster.freeze = ClusterFreeze.ACTIVE

        # 6. DVFS decisions (clusters that just observed skip one round so
        #    the market settles on the new base price first).
        level_requests: Dict[str, int] = {}
        for cluster in self.clusters.values():
            if cluster.freeze is not ClusterFreeze.ACTIVE:
                continue
            if cluster.cluster_id in observing:
                continue
            constrained = constrained_cores[cluster.cluster_id]
            if constrained is None:
                continue
            change = cluster.decide_level_change(constrained, cfg.tolerance)
            if change < 0 and self.chip.state is not ChipPowerState.EMERGENCY:
                # Round the demand up to the next supply value (section
                # 3.2.4): never deflate onto a level that no longer covers
                # the constrained core -- that guarantees an immediate
                # re-inflation and oscillation between adjacent levels.
                demand = core_demands[constrained.core_id]
                if cluster.supply_ladder[cluster.level_index - 1] < demand:
                    change = 0
            if change == 0:
                change = self._floor_price_descent(
                    cluster,
                    constrained,
                    core_agents[constrained.core_id],
                    core_demands[constrained.core_id],
                )
            if self.chip.state is ChipPowerState.EMERGENCY:
                # Above the TDP the only admissible direction is down: no
                # cluster may raise its supply, and a cluster whose buyers
                # are pinned at the minimum bid can no longer afford its
                # current supply -- deflation has bottomed out against the
                # bid floor, so carry the descent explicitly.
                if change > 0:
                    change = 0
                if change == 0 and cluster.level_index > 0:
                    agents = core_agents[constrained.core_id]
                    if agents and all(a.bid <= cfg.bmin * 1.01 for a in agents):
                        change = -1
            if change != 0:
                level_requests[cluster.cluster_id] = cluster.level_index + change
                cluster.freeze = ClusterFreeze.AWAITING

        if not use_vec:
            for agent in self.tasks.values():
                agent.note_round_outcome()

        self._prev_total_demand = total_demand
        self._prev_total_supply = total_supply
        self._prev_shortfall = supply_shortfall
        self.rounds_run += 1


        frozen = {
            c.cluster_id
            for c in self.clusters.values()
            if c.freeze is not ClusterFreeze.ACTIVE
        }
        return RoundResult(
            allocations=allocations,
            level_requests=level_requests,
            chip_state=self.chip.state,
            allowance=self.chip.allowance,
            prices=prices,
            frozen_clusters=frozen,
            total_demand=total_demand,
            total_supply=total_supply,
        )
