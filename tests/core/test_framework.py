"""Integration tests for the PPM governor on the simulator."""

import pytest

from repro.core import ChipPowerState, MarketConfig, PPMConfig, PPMGovernor
from repro.core.admission import AdmissionConfig, AdmissionController, OverloadManager
from repro.experiments.overload import build_overload_arrivals
from repro.hw import tc2_chip
from repro.sim import SimConfig, Simulation
from repro.tasks import ArrivalStream, build_workload, make_task


def make_sim(tasks, config=None, dt=0.01):
    governor = PPMGovernor(config)
    sim = Simulation(
        tc2_chip(), tasks, governor, config=SimConfig(dt=dt, metrics_warmup_s=0.0)
    )
    return sim, governor


class TestMarketWiring:
    def test_agents_created_for_tasks(self):
        tasks = build_workload("l1")
        sim, gov = make_sim(tasks)
        sim.run(0.1)
        assert set(gov.market.tasks) == {t.name for t in tasks}

    def test_allocations_pushed_to_engine(self):
        tasks = build_workload("l1")
        sim, gov = make_sim(tasks)
        sim.run(0.2)
        assert all(sim.allocation_of(t) is not None for t in tasks)

    def test_market_round_runs_at_bid_period(self):
        tasks = [make_task("swaptions", "l")]
        sim, gov = make_sim(tasks)
        sim.run(0.32)  # ~10 bid periods of 31.7 ms
        # Bid rounds quantise to the 10 ms engine tick (31.7 ms -> every 4th).
        assert 7 <= gov.market.rounds_run <= 11

    def test_departed_task_removed_from_market(self):
        brief = make_task("swaptions", "l", duration=0.2)
        keeper = make_task("x264", "l")
        sim, gov = make_sim([brief, keeper])
        sim.run(0.1)
        assert brief.name in gov.market.tasks
        sim.run(0.3)
        assert brief.name not in gov.market.tasks
        assert keeper.name in gov.market.tasks

    def test_move_times_kept_for_market_tasks_only(self):
        """A retired task's LBT move time leaves with it (flash-crowd run)."""
        chip = tc2_chip()
        sim, gov = make_sim(build_workload("l1"), PPMConfig(market=MarketConfig(wtdp=10.0)))
        stream = ArrivalStream(build_overload_arrivals(chip, 12.0, 3.0), seed=3)
        OverloadManager(stream, AdmissionController(AdmissionConfig())).attach(sim)
        for tick in range(1200):
            sim.step()
            if tick % 100 == 0:
                assert set(gov._last_move_time) <= set(gov.market.tasks), sim.now
        retired = [t for t in sim.tasks if not t.is_active(sim.now)]
        assert retired and any(t.migrations for t in retired)

    def test_task_placed_before_its_start_joins_when_it_starts(self):
        """The mirror follows task starts, not only placement changes.

        ``l1.blackscholes_l`` is placed on ``big.0`` before tick 0 and
        starts at 0.01 s, so its start moves no placement version: it
        must join at the first bid period after it, the one of tick 4.
        """
        chip = tc2_chip()
        tasks = build_workload("l1")
        late = tasks[-1]
        assert late.name == "l1.blackscholes_l"
        late.start_time = 0.01
        gov = PPMGovernor(PPMConfig(market=MarketConfig(wtdp=8.0)))
        sim = Simulation(chip, tasks, gov, config=SimConfig(seed=5))
        sim.place(late, chip.core("big.0"))
        joined = None
        for tick in range(30):
            sim.step()
            if joined is None and late.name in gov.market.tasks:
                joined = tick
        assert joined == 4
        assert gov.market.core_of(late.name) == "big.0"

    def test_placement_synced_into_market(self):
        task = make_task("swaptions", "l")
        sim, gov = make_sim([task])
        sim.run(0.1)
        assert gov.market.core_of(task.name) == sim.placement.core_of(task).core_id


class TestSupplyDemandBehaviour:
    def test_dvfs_rises_to_meet_demand(self):
        # One demanding task: little must leave its minimum level.
        task = make_task("tracking", "v")  # 720 PUs on A7
        sim, gov = make_sim([task])
        sim.run(5.0)
        assert sim.chip.cluster("little").frequency_mhz >= 700.0
        assert task.observed_heart_rate() >= 0.9 * task.hr_range.min_hr

    def test_light_task_keeps_frequency_low(self):
        task = make_task("multicnt", "v")  # 280 PUs on A7
        sim, gov = make_sim([task])
        sim.run(5.0)
        assert sim.chip.cluster("little").frequency_mhz <= 500.0

    def test_frequency_descends_after_demand_drop(self):
        from repro.tasks import PiecewisePhases, make_profile
        from repro.tasks.task import Task

        profile = make_profile(
            "tracking", "v", phases=PiecewisePhases([(3.0, 1.2), (60.0, 0.35)])
        )
        task = Task(profile=profile)
        sim, gov = make_sim([task])
        sim.run(3.0)
        high = sim.chip.cluster("little").frequency_mhz
        sim.run(8.0)
        low = sim.chip.cluster("little").frequency_mhz
        assert low < high

    def test_demand_bootstraps_from_profile(self):
        task = make_task("swaptions", "l")
        sim, gov = make_sim([task])
        sim.run(0.04)  # first bid round only
        agent = gov.market.tasks[task.name]
        nominal = task.profile.nominal_demand_pus("A7")
        assert agent.demand == pytest.approx(
            nominal * gov.config.market.demand_headroom, rel=0.05
        )


class TestLBTIntegration:
    def test_overloaded_little_promotes_to_big(self):
        tasks = build_workload("h3")  # cannot fit on the little cluster
        sim, gov = make_sim(tasks)
        sim.run(10.0)
        big_tasks = sim.placement.tasks_on_cluster(sim.chip.cluster("big"))
        assert len(big_tasks) >= 1
        assert gov.moves_executed >= 1

    def test_lbt_can_be_disabled(self):
        tasks = build_workload("h3")
        sim, gov = make_sim(
            tasks,
            PPMConfig(enable_load_balancing=False, enable_migration=False),
        )
        sim.run(5.0)
        assert gov.moves_executed == 0
        assert sim.migrations.counts() == (0, 0)

    def test_cooldown_limits_per_task_migration_rate(self):
        tasks = build_workload("m2")
        sim, gov = make_sim(tasks, PPMConfig(migration_cooldown_s=2.0))
        sim.run(6.0)
        for task in tasks:
            # With a 2 s cooldown a task can move at most ~3 times in 6 s.
            assert task.migrations <= 4


class TestTDPBehaviour:
    def test_power_respects_cap_on_average(self):
        tasks = build_workload("h1")
        sim, gov = make_sim(
            tasks, PPMConfig(market=MarketConfig(wtdp=4.0, wth=3.5))
        )
        sim.run(20.0)
        # Averaged after convergence the chip sits in/below the buffer zone.
        recent = [s.chip_power_w for s in sim.metrics.samples[-500:]]
        assert sum(recent) / len(recent) <= 4.3

    def test_no_cap_allows_higher_power(self):
        tasks = build_workload("h1")
        sim_uncapped, _ = make_sim(tasks)
        sim_uncapped.run(20.0)
        recent = [s.chip_power_w for s in sim_uncapped.metrics.samples[-500:]]
        assert sum(recent) / len(recent) > 4.0

    def test_emergency_state_reported(self):
        tasks = build_workload("h1")
        sim, gov = make_sim(
            tasks, PPMConfig(market=MarketConfig(wtdp=2.0, wth=1.8))
        )
        seen = set()
        for _ in range(100):
            sim.run(0.1)
            if gov.last_round is not None:
                seen.add(gov.last_round.chip_state)
        assert ChipPowerState.EMERGENCY in seen or ChipPowerState.THRESHOLD in seen
