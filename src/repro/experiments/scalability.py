"""The scalability study: Table 7.

The paper emulates large systems by feeding randomly generated task and
cluster state to a single constrained core and measuring the time that
core spends in the supply-demand module plus the LBT module per 190 ms
migration interval, for up to 256 clusters x 16 cores x 32 tasks per core
(131,072 tasks).  Supplies and demands are drawn from 10-50 PUs and the
cluster maximum supplies from 350-3000 PUs.

The emulator below performs, with the same asymptotic shape (``T x V x
M``), exactly the computations the constrained core owns:

* supply-demand module: one Equation 1 bid update, price discovery and
  purchase for each local task;
* LBT module: for each local task and each remote cluster, estimate the
  steady-state demand on the target core type, the required V-F level
  (demand rounded up the supply ladder), the Equation 2 price recursion,
  and the candidate mapping's ``perf``/``spend`` contribution against the
  current mapping.

Remote-cluster aggregates are precomputed once per invocation, matching
the paper's hierarchically disseminated summaries ("all the information
required for the estimation is hierarchically disseminated ... and kept
consistent with periodic message passing").

Absolute milliseconds are *not* comparable to the paper's (they measure
optimised C on a 350 MHz Cortex-A7; this is Python on a workstation);
the table's reproduced property is the growth of overhead with tasks,
cores and clusters, and its order of magnitude per 190 ms interval.
"""

from __future__ import annotations

import bisect
import random
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .parallel import PointSpec, execute_points
from .reporting import format_table

#: (clusters, cores per cluster, tasks per core) rows of Table 7.
TABLE7_CONFIGS: Tuple[Tuple[int, int, int], ...] = (
    (2, 4, 8),
    (2, 4, 32),
    (4, 8, 8),
    (4, 8, 32),
    (16, 8, 8),
    (16, 8, 32),
    (16, 16, 8),
    (16, 16, 32),
    (256, 8, 8),
    (256, 8, 32),
    (256, 16, 8),
    (256, 16, 32),
)

#: The migration interval the overhead is reported against (section 3.4).
MIGRATION_INTERVAL_MS = 190.0


@dataclass
class RemoteClusterSummary:
    """Aggregates a cluster agent disseminates to constrained cores."""

    supply_ladder: List[float]
    level_index: int
    price: float
    target_core_free_pus: float  #: over-supply of its best candidate core
    speedup: float  #: relative per-PU work factor vs the local core type


@dataclass
class LocalTask:
    """Market state of one task on the constrained core."""

    priority: int
    demand: float
    supply: float
    bid: float


@dataclass
class ScalabilityPoint:
    """One row of Table 7."""

    clusters: int
    cores_per_cluster: int
    tasks_per_core: int
    avg_overhead_ms: float
    avg_overhead_pct: float  #: of the 190 ms migration interval

    @property
    def total_tasks(self) -> int:
        return self.clusters * self.cores_per_cluster * self.tasks_per_core


class ConstrainedCoreEmulator:
    """Performs the constrained core's per-invocation market work."""

    def __init__(
        self,
        n_clusters: int,
        cores_per_cluster: int,
        tasks_per_core: int,
        seed: Optional[int] = None,
        tolerance: float = 0.15,
        bmin: float = 0.01,
    ):
        rng = random.Random(seed)
        self.tolerance = tolerance
        self.bmin = bmin
        self.core_supply = 350.0  # the A7 core at its lowest level
        self.tasks: List[LocalTask] = [
            LocalTask(
                priority=rng.randint(1, 8),
                demand=rng.uniform(10.0, 50.0),
                supply=rng.uniform(10.0, 50.0),
                bid=rng.uniform(0.5, 2.0),
            )
            for _ in range(tasks_per_core)
        ]
        self.remote: List[RemoteClusterSummary] = []
        for _ in range(n_clusters - 1):
            max_supply = rng.uniform(350.0, 3000.0)
            ladder = [max_supply * (k + 1) / 8.0 for k in range(8)]
            self.remote.append(
                RemoteClusterSummary(
                    supply_ladder=ladder,
                    level_index=rng.randrange(8),
                    price=rng.uniform(0.001, 0.01),
                    target_core_free_pus=rng.uniform(10.0, 50.0) * cores_per_cluster,
                    speedup=rng.uniform(0.5, 2.0),
                )
            )

    # -- the supply-demand module's local work ---------------------------------
    def run_supply_demand_round(self) -> float:
        """Equation 1 bids, price discovery and purchase for local tasks."""
        price = sum(t.bid for t in self.tasks) / self.core_supply
        for task in self.tasks:
            desired = task.bid + (task.demand - task.supply) * price
            task.bid = max(self.bmin, desired)
        price = sum(t.bid for t in self.tasks) / self.core_supply
        for task in self.tasks:
            task.supply = task.bid / price
        return price

    # -- the LBT module's speculation -------------------------------------------
    def run_lbt_invocation(self) -> Tuple[float, int]:
        """Estimate every (local task x remote cluster) candidate mapping.

        Returns (best spend saving, index of best candidate) so the work
        cannot be optimised away.
        """
        local_price = sum(t.bid for t in self.tasks) / self.core_supply
        current_spend = sum(t.bid for t in self.tasks)
        best_saving = 0.0
        best_index = -1
        index = 0
        for task in self.tasks:
            local_ratio = min(1.0, task.supply / task.demand)
            for cluster in self.remote:
                # Demand on the target core type (off-line profile scaling).
                demand_there = task.demand / cluster.speedup
                # Required V-F level: demand rounded up the supply ladder.
                load_there = demand_there + (
                    cluster.supply_ladder[cluster.level_index]
                    - cluster.target_core_free_pus
                )
                target_level = bisect.bisect_left(cluster.supply_ladder, load_there)
                if target_level >= len(cluster.supply_ladder):
                    target_level = len(cluster.supply_ladder) - 1
                # Equation 2 price recursion.
                steps = target_level - cluster.level_index
                if steps >= 0:
                    price_est = cluster.price * (1.0 + self.tolerance) ** steps
                else:
                    price_est = cluster.price * (1.0 - self.tolerance) ** (-steps)
                supply_there = min(
                    demand_there, cluster.supply_ladder[target_level]
                )
                ratio_there = (
                    min(1.0, supply_there / demand_there) if demand_there else 1.0
                )
                candidate_bid = supply_there * price_est
                candidate_spend = current_spend - task.bid + candidate_bid
                saving = current_spend - candidate_spend
                if ratio_there >= local_ratio and saving > best_saving:
                    best_saving = saving
                    best_index = index
                index += 1
        return best_saving, best_index


def measure_overhead(
    n_clusters: int,
    cores_per_cluster: int,
    tasks_per_core: int,
    invocations: int = 5,
    seed: Optional[int] = 42,
) -> ScalabilityPoint:
    """Time the constrained core's work for one Table 7 configuration."""
    emulator = ConstrainedCoreEmulator(
        n_clusters, cores_per_cluster, tasks_per_core, seed=seed
    )
    # Warm-up invocation (bytecode caches, allocator).
    emulator.run_supply_demand_round()
    emulator.run_lbt_invocation()
    start = time.perf_counter()
    sink = 0.0
    for _ in range(invocations):
        # Per 190 ms migration interval: 6 bid rounds + 1 LBT invocation.
        for _ in range(6):
            sink += emulator.run_supply_demand_round()
        saving, _ = emulator.run_lbt_invocation()
        sink += saving
    elapsed = time.perf_counter() - start
    avg_ms = elapsed / invocations * 1000.0
    return ScalabilityPoint(
        clusters=n_clusters,
        cores_per_cluster=cores_per_cluster,
        tasks_per_core=tasks_per_core,
        avg_overhead_ms=avg_ms,
        avg_overhead_pct=100.0 * avg_ms / MIGRATION_INTERVAL_MS,
    )


#: Task populations for the full-engine extension rows (and the sim
#: seconds each is run for -- a 10,000-task tick costs hundreds of
#: milliseconds, so the largest point keeps the run short).
FULL_SIM_SIZES: Tuple[Tuple[int, float], ...] = (
    (50, 2.0),
    (1000, 1.0),
    (10000, 0.2),
)


@dataclass
class FullSimPoint:
    """One full-engine row of the extended Table 7."""

    tasks: int
    sim_s: float
    ticks: int
    columnar_ticks_per_s: float
    object_ticks_per_s: float

    @property
    def speedup(self) -> float:
        if self.object_ticks_per_s <= 0.0:
            return float("inf")
        return self.columnar_ticks_per_s / self.object_ticks_per_s

    @property
    def ms_per_tick(self) -> float:
        if self.columnar_ticks_per_s <= 0.0:
            return float("inf")
        return 1000.0 / self.columnar_ticks_per_s

    @property
    def overhead_per_interval_ms(self) -> float:
        """Wall ms spent per 190 ms of simulated time (19 ticks)."""
        return self.ms_per_tick * (MIGRATION_INTERVAL_MS / 10.0)


def _time_full_sim(n_tasks: int, sim_s: float, engine: type) -> float:
    """Ticks/s of one full run of the ``engine`` class at ``n_tasks`` tasks."""
    from ..hw import tc2_chip
    from ..sim import SimConfig
    from ..tasks import random_tasks
    from .harness import make_governor

    sim = engine(
        tc2_chip(),
        random_tasks(n_tasks, seed=7),
        make_governor("PPM", power_cap_w=8.0),
        config=SimConfig(seed=7, metrics_warmup_s=sim_s / 4.0),
    )
    start = time.perf_counter()
    sim.run(sim_s)
    elapsed = time.perf_counter() - start
    return round(sim_s / 0.01) / elapsed


def full_sim_points(
    sizes: Sequence[Tuple[int, float]] = FULL_SIM_SIZES,
    repeats: int = 2,
) -> List[FullSimPoint]:
    """Time the *actual* engine (both loops) at Table 7 populations.

    The paper's Table 7 emulates the constrained core's work; these rows
    run the complete simulator -- market, LBT, dispatch, telemetry -- at
    1,000 and 10,000 tasks, which the columnar tick engine makes
    tractable end to end.  Both engines produce bit-identical telemetry
    (``tests/sim/test_columnar_equivalence.py``), so the speedup column
    is a pure implementation comparison.
    """
    from ..sim.columnar import ColumnarSimulation
    from ..sim.engine import ObjectSimulation

    # Warm-up run: the first simulation in a process pays allocator and
    # CPU-frequency ramp costs that would bias whichever column runs first.
    _time_full_sim(50, 0.3, ColumnarSimulation)

    def _best(*args) -> float:
        return max(_time_full_sim(*args) for _ in range(max(1, repeats)))

    points = []
    for n_tasks, sim_s in sizes:
        columnar = _best(n_tasks, sim_s, ColumnarSimulation)
        obj = _best(n_tasks, sim_s, ObjectSimulation)
        points.append(
            FullSimPoint(
                tasks=n_tasks,
                sim_s=sim_s,
                ticks=round(sim_s / 0.01),
                columnar_ticks_per_s=columnar,
                object_ticks_per_s=obj,
            )
        )
    return points


def table7_extended(
    configs: Sequence[Tuple[int, int, int]] = TABLE7_CONFIGS,
    invocations: int = 5,
    jobs: Optional[int] = None,
    sizes: Sequence[Tuple[int, float]] = FULL_SIM_SIZES,
) -> Tuple[List[ScalabilityPoint], List[FullSimPoint], str]:
    """Table 7 plus full-engine rows at 50 / 1,000 / 10,000 tasks."""
    points, text = table7(configs=configs, invocations=invocations, jobs=jobs)
    sim_points = full_sim_points(sizes=sizes)
    rows = [
        [
            p.tasks,
            p.ticks,
            f"{p.columnar_ticks_per_s:.1f}",
            f"{p.object_ticks_per_s:.1f}",
            f"{p.speedup:.2f}",
            f"{p.ms_per_tick:.2f}",
            f"{p.overhead_per_interval_ms:.1f}",
        ]
        for p in sim_points
    ]
    extra = format_table(
        [
            "tasks",
            "ticks",
            "columnar t/s",
            "object t/s",
            "speedup",
            "ms/tick",
            "wall ms / 190 ms interval",
        ],
        rows,
        title=(
            "Table 7 (extended): full-engine wall cost at scale "
            "(columnar vs object tick loop)"
        ),
    )
    return points, sim_points, text + "\n\n" + extra


def table7(
    configs: Sequence[Tuple[int, int, int]] = TABLE7_CONFIGS,
    invocations: int = 5,
    jobs: Optional[int] = None,
) -> Tuple[List[ScalabilityPoint], str]:
    """Regenerate Table 7 over the paper's configurations.

    With ``jobs`` > 1 the configurations are timed in worker processes.
    The emulated *work* is identical, but wall-clock overhead numbers are
    then measured under CPU contention -- use multiple jobs to smoke-test
    the table quickly, and a single job for quotable measurements.
    """
    specs = [
        PointSpec(
            fn=measure_overhead,
            label=f"table7 V={v} C={c} T={t}",
            args=(v, c, t),
            kwargs={"invocations": invocations},
        )
        for (v, c, t) in configs
    ]
    points = execute_points(specs, jobs=jobs)
    rows = [
        [
            p.clusters,
            p.cores_per_cluster,
            p.tasks_per_core,
            p.total_tasks,
            f"{p.avg_overhead_pct:.2f}",
            f"{p.avg_overhead_ms:.3f}",
        ]
        for p in points
    ]
    text = format_table(
        ["V", "C", "T", "total tasks", "avg overhead [%]", "avg overhead [ms]"],
        rows,
        title=(
            "Table 7: constrained-core overhead per 190 ms migration interval"
        ),
    )
    return points, text
