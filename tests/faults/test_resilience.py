"""Tests for the governor resilience layer.

Units first (detector, backoff, supervisor, watchdog, market recovery
guard), then full-stack scenarios: PPM surviving total sensor loss,
degrading to safe mode when the market freezes, re-issuing dropped DVFS
writes and failed migrations, and the hot-unplug/replug acceptance
scenario (tasks re-placed, books clean, QoS restored within bounded
time).
"""

import math
from array import array

import numpy as np
import pytest

from repro.core import (
    BackoffRetry,
    DVFSSupervisor,
    MarketAuditor,
    MarketConfig,
    MarketWatchdog,
    PPMConfig,
    PPMGovernor,
    ResilienceConfig,
    StaleSensorDetector,
    WatchdogState,
)
from repro.core.market import Market
from repro.faults import FaultInjector, FaultKind, single_fault
from repro.hw import tc2_chip
from repro.hw.sensors import SensorSample
from repro.sim import SimConfig, Simulation
from repro.tasks import build_workload


def _sample(watts: float) -> SensorSample:
    return SensorSample(
        chip_power_w=watts,
        cluster_power_w={"big": watts},
        cluster_frequency_mhz={"big": 1000.0},
        cluster_voltage_v={"big": 1.0},
    )


class TestResilienceConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"stale_reads": 1},
            {"spike_factor": 1.0},
            {"retry_initial_rounds": 0},
            {"retry_initial_rounds": 8, "retry_max_rounds": 4},
            {"watchdog_failures": 0},
            {"divergence_rounds": 0},
            {"recovery_rounds": 0},
            {"safe_level_index": -1},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ResilienceConfig(**kwargs)

    def test_defaults_valid(self):
        ResilienceConfig()


class TestStaleSensorDetector:
    def test_dropout_before_any_good_sample_is_zero(self):
        detector = StaleSensorDetector()
        trusted = detector.observe(None)
        assert trusted.chip_power_w == 0.0
        assert detector.dropouts == 1

    def test_dropout_serves_last_good(self):
        detector = StaleSensorDetector()
        good = _sample(2.0)
        assert detector.observe(good) is good
        assert detector.observe(None) is good
        assert detector.suspect_reads == 1

    def test_stuck_detection_needs_bit_identical_repeats(self):
        detector = StaleSensorDetector(stale_reads=3)
        frozen = _sample(2.5)
        detector.observe(frozen)
        for _ in range(2):
            assert detector.observe(frozen) is frozen  # still plausible
            assert detector.stuck == 0
        # One more identical reading crosses the threshold.  The fallback
        # is the last good sample -- the stuck value itself, so a
        # genuinely constant power draw is served unchanged.
        assert detector.observe(frozen) is frozen
        assert detector.stuck == 1
        # A changing reading clears the streak.
        moving = _sample(2.501)
        assert detector.observe(moving) is moving
        assert detector.observe(moving) is moving
        assert detector.stuck == 1

    def test_spike_rejected_against_rolling_median(self):
        detector = StaleSensorDetector(spike_factor=3.0)
        for watts in (1.0, 1.1, 0.9, 1.05, 1.0):
            detector.observe(_sample(watts))
        spike = detector.observe(_sample(10.0))
        assert spike.chip_power_w == pytest.approx(1.0)  # last good served
        assert detector.spikes == 1

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.5])
    def test_nonphysical_readings_always_rejected(self, bad):
        detector = StaleSensorDetector()
        good = _sample(1.5)
        detector.observe(good)
        assert detector.observe(_sample(bad)) is good

    def test_healthy_stream_passes_through_untouched(self):
        detector = StaleSensorDetector()
        for i in range(50):
            sample = _sample(1.0 + 0.01 * (i % 7))
            assert detector.observe(sample) is sample
        assert detector.suspect_reads == 0

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "rejected readings never enter the median window, so a sustained "
            "rise above 3x the start-up median latches as a spike forever "
            "(ROADMAP: stale-sensor guard latch)"
        ),
    )
    def test_sustained_level_shift_is_accepted(self):
        """A start-up ramp followed by a real, lasting load step -- the
        shape of h2 under PPM at the 4 W cap -- must not freeze the
        governor on the ramp's last reading."""
        detector = StaleSensorDetector()
        for watts in (0.44, 0.78, 0.83, 0.83, 0.83):
            detector.observe(_sample(watts))
        for i in range(200):
            served = detector.observe(_sample(4.0 + 0.001 * i))
        assert served.chip_power_w > 4.0


class TestBackoffRetry:
    def test_backoff_doubles_and_caps(self):
        retry = BackoffRetry(initial_rounds=1, max_rounds=4)
        assert retry.should_attempt("k", 0)
        retry.record_failure("k", 0)  # next at 1, backoff 2
        assert not retry.should_attempt("k", 0)
        assert retry.should_attempt("k", 1)
        retry.record_failure("k", 1)  # next at 3, backoff 4
        assert not retry.should_attempt("k", 2)
        retry.record_failure("k", 3)  # next at 7, backoff capped at 4
        retry.record_failure("k", 7)  # next at 11: cap holds
        assert not retry.should_attempt("k", 10)
        assert retry.should_attempt("k", 11)
        assert retry.retries == 4

    def test_success_resets_key(self):
        retry = BackoffRetry(initial_rounds=2, max_rounds=8)
        retry.record_failure("k", 0)
        assert retry.pending() == 1
        retry.record_success("k")
        assert retry.pending() == 0
        assert retry.should_attempt("k", 0)


class TestDVFSSupervisor:
    def _make(self):
        sim = Simulation(
            tc2_chip(), [], _NullGovernor(), config=SimConfig()
        )
        return sim, DVFSSupervisor(BackoffRetry(1, 8))

    def test_request_forwards_and_clamps(self):
        sim, supervisor = self._make()
        big = sim.chip.cluster("big")
        supervisor.request(sim, big, 999)
        assert big.regulator.target_index == big.vf_table.max_index

    def test_verify_reissues_dropped_requests(self):
        sim, supervisor = self._make()
        big = sim.chip.cluster("big")
        top = big.vf_table.max_index
        original = sim.request_level
        sim.request_level = lambda cluster, index: True  # cpufreq eats writes
        supervisor.request(sim, big, top)
        assert big.regulator.target_index != top
        assert supervisor.verify(sim, round_no=1) == 1  # re-issued, still lost
        sim.request_level = original  # actuation path heals
        assert supervisor.verify(sim, round_no=3) == 1
        assert big.regulator.target_index == top
        assert supervisor.verify(sim, round_no=4) == 0  # acknowledged
        assert supervisor.reissues == 2

    def test_verify_skips_offline_clusters(self):
        sim, supervisor = self._make()
        big = sim.chip.cluster("big")
        sim.request_level = lambda cluster, index: True
        supervisor.request(sim, big, big.vf_table.max_index)
        sim.hotplug_out(big)
        assert supervisor.verify(sim, round_no=1) == 0


class TestMarketWatchdog:
    def test_trips_after_consecutive_failures(self):
        watchdog = MarketWatchdog(ResilienceConfig(watchdog_failures=3))
        assert not watchdog.record_failure()
        assert not watchdog.record_failure()
        assert watchdog.record_failure()
        assert watchdog.in_safe_mode
        assert watchdog.trips == 1

    def test_completed_round_resets_failure_streak(self):
        watchdog = MarketWatchdog(ResilienceConfig(watchdog_failures=2))
        watchdog.record_failure()
        watchdog.record_round(chip_power_w=1.0, wtdp=4.0)
        assert not watchdog.record_failure()  # streak restarted
        assert not watchdog.in_safe_mode

    def test_nonfinite_round_results_trip_immediately(self):
        watchdog = MarketWatchdog()
        tripped = watchdog.record_round(
            chip_power_w=1.0, wtdp=None, prices={"big": float("nan")}
        )
        assert tripped and watchdog.in_safe_mode
        assert "non-finite" in watchdog.trip_reasons[0]
        # The round's supply column, from either clearing path, trips on
        # its first non-finite row.
        rows = ("a", "b", "c", "d")
        for column in (np.array, lambda values: array("d", values)):
            watchdog = MarketWatchdog()
            assert not watchdog.record_round(
                chip_power_w=1.0,
                wtdp=None,
                task_ids=rows,
                supplies=column([0.0, 1.0, 2.0, 3.0]),
            )
            tripped = watchdog.record_round(
                chip_power_w=1.0,
                wtdp=None,
                prices={"big": 2.0},
                task_ids=rows,
                supplies=column([1.0, float("inf"), 2.0, float("nan")]),
            )
            assert tripped and watchdog.in_safe_mode
            assert watchdog.trip_reasons == ["non-finite allocation for b: inf"]

    def test_divergence_needs_a_sustained_streak(self):
        watchdog = MarketWatchdog(
            ResilienceConfig(divergence_factor=1.5, divergence_rounds=3)
        )
        assert not watchdog.record_round(chip_power_w=10.0, wtdp=4.0)
        assert not watchdog.record_round(chip_power_w=10.0, wtdp=4.0)
        watchdog.record_round(chip_power_w=1.0, wtdp=4.0)  # streak broken
        assert not watchdog.record_round(chip_power_w=10.0, wtdp=4.0)
        assert not watchdog.record_round(chip_power_w=10.0, wtdp=4.0)
        assert watchdog.record_round(chip_power_w=10.0, wtdp=4.0)

    def test_recovery_requires_consecutive_healthy_rounds(self):
        watchdog = MarketWatchdog(
            ResilienceConfig(watchdog_failures=1, recovery_rounds=3)
        )
        watchdog.record_failure()
        assert watchdog.in_safe_mode
        watchdog.record_safe_round(healthy=True)
        watchdog.record_safe_round(healthy=True)
        watchdog.record_safe_round(healthy=False)  # resets the count
        watchdog.record_safe_round(healthy=True)
        watchdog.record_safe_round(healthy=True)
        assert watchdog.record_safe_round(healthy=True)
        assert watchdog.state is WatchdogState.HEALTHY


class TestMarketRemovalGuard:
    def _market(self):
        market = Market(MarketConfig())
        market.add_cluster("c", ["c.0", "c.1"], [10.0, 20.0])
        market.add_task("a", 1, "c.0")
        market.add_task("b", 1, "c.1")
        return market

    def test_corrupted_allowance_restored_on_removal(self):
        market = self._market()
        market.chip.allowance = float("nan")
        market.remove_task("a")
        assert math.isfinite(market.chip.allowance)
        assert market.chip.allowance >= market.config.bmin * len(market.tasks)

    def test_allowance_floor_enforced_for_survivors(self):
        market = self._market()
        market.chip.allowance = 0.0
        market.remove_task("a")
        assert market.chip.allowance >= market.config.bmin

    def test_last_task_removal_leaves_empty_market(self):
        market = self._market()
        market.remove_task("a")
        market.remove_task("b")
        assert not market.tasks


class _NullGovernor:
    def prepare(self, sim):
        pass

    def on_tick(self, sim):
        pass


# ----------------------------------------------------------------------
# Full-stack scenarios
# ----------------------------------------------------------------------
def _ppm_sim(tasks, governor=None, **config):
    governor = governor or PPMGovernor(PPMConfig(market=MarketConfig(wtdp=4.0)))
    sim = Simulation(tc2_chip(), tasks, governor, config=SimConfig(**config))
    return sim, governor


class TestPPMUnderFaults:
    def test_total_sensor_dropout_degrades_but_never_crashes(self):
        sim, governor = _ppm_sim(
            build_workload("m2"), metrics_warmup_s=2.0, seed=4
        )
        FaultInjector(sim, single_fault(FaultKind.SENSOR_DROPOUT, 0.0, 1e9)).attach()
        metrics = sim.run(10.0)
        assert sim.sensor_read_failures > 0
        assert governor.sensor_guard is not None
        # The market kept trading on the fallback reading.
        assert governor.last_round is not None
        assert metrics.any_task_miss_fraction() < 0.9
        assert all(math.isfinite(s.chip_power_w) for s in metrics.samples)

    def test_dropped_dvfs_writes_are_reissued(self):
        sim, governor = _ppm_sim(build_workload("m2"), seed=4)
        schedule = single_fault(FaultKind.DVFS_DROP, 0.5, 2.0)
        injector = FaultInjector(sim, schedule).attach()
        sim.run(5.0)
        assert injector.stats()["dvfs_dropped"] > 0
        assert governor.dvfs_supervisor is not None
        assert governor.dvfs_supervisor.reissues > 0
        # After the window the read-back matches what the market wants.
        supervisor = governor.dvfs_supervisor
        for cluster_id, level in supervisor._desired.items():
            cluster = sim.chip.cluster(cluster_id)
            if cluster.powered:
                assert cluster.regulator.target_index == level

    def test_failed_migrations_are_retried_after_fault_clears(self):
        from repro.core.estimation import MappingEstimate
        from repro.core.lbt import MoveDecision

        governor = PPMGovernor(
            PPMConfig(
                market=MarketConfig(wtdp=4.0),
                enable_load_balancing=False,
                enable_migration=False,
            )
        )
        sim, governor = _ppm_sim(build_workload("m2"), governor=governor, seed=4)
        sim.run(1.0)
        task = next(iter(governor._tasks_by_id.values()))
        source = sim.placement.core_of(task)
        target_cluster = "big" if source.cluster.cluster_id == "little" else "little"
        target = sim.chip.cluster(target_cluster).cores[0]
        FaultInjector(
            sim, single_fault(FaultKind.MIGRATION_FAIL, 0.0, 2.0, target=task.name)
        ).attach()
        empty = MappingEstimate(ratios={}, bids={}, levels={})
        decision = MoveDecision(
            task_id=task.name,
            source_core_id=source.core_id,
            target_core_id=target.core_id,
            mode="performance",
            current=empty,
            candidate=empty,
        )
        governor._execute_move(sim, decision)
        assert sim.placement.core_of(task) is source  # blocked by the fault
        assert task.name in governor._pending_moves
        sim.run(3.0)  # fault window closes at t=2; backoff retries after
        assert sim.placement.core_of(task) is target
        assert task.name not in governor._pending_moves
        assert governor.market.core_of(task.name) == target.core_id

    def test_frozen_market_degrades_to_safe_mode_and_recovers(self):
        sim, governor = _ppm_sim(build_workload("m2"), seed=4)
        sim.run(2.0)
        assert not governor.in_safe_mode
        healthy_round = governor.last_round

        def frozen(obs):
            raise RuntimeError("bid round wedged")

        governor.market.run_round = frozen
        for _ in range(40):  # step until the failure streak trips the dog
            sim.run(0.1)
            if governor.in_safe_mode:
                break
        # Watchdog tripped; every powered cluster parked at the safe floor.
        assert governor.in_safe_mode
        assert governor.safe_mode_entries >= 1
        assert governor.watchdog.trips >= 1
        safe = governor.config.resilience.safe_level_index
        for cluster in sim.chip.clusters:
            if cluster.powered:
                assert cluster.regulator.target_index == safe
        # Allocations were dropped: the dispatcher is on fair shares.
        assert all(
            sim.allocation_of(task) is None for task in sim.active_tasks()
        )
        del governor.market.run_round  # the market heals
        sim.run(3.0)
        assert not governor.in_safe_mode  # recovered after sustained health
        assert governor.last_round is not healthy_round  # trading again
        assert governor.watchdog.state is WatchdogState.HEALTHY

    def test_without_resilience_a_frozen_market_raises(self):
        governor = PPMGovernor(
            PPMConfig(market=MarketConfig(wtdp=4.0), resilience=None)
        )
        sim, governor = _ppm_sim(build_workload("m2"), governor=governor)
        sim.run(1.0)

        def frozen(obs):
            raise RuntimeError("bid round wedged")

        governor.market.run_round = frozen
        with pytest.raises(RuntimeError):
            sim.run(1.0)


class TestHotplugRecovery:
    """The acceptance scenario: lose the big cluster, get everything back."""

    def test_unplug_replug_replaces_tasks_and_restores_qos(self):
        sim, governor = _ppm_sim(
            build_workload("m2"), metrics_warmup_s=2.0, seed=4, audit=True
        )
        schedule = single_fault(FaultKind.HOTPLUG, 6.0, 4.0, target="big")
        injector = FaultInjector(sim, schedule).attach()
        sim.run(8.0)  # mid-outage
        assert "big" in sim.offline_clusters
        # Every task kept running: all re-placed onto the little cluster
        # and still present in the market's books.
        for task in sim.active_tasks():
            core = sim.placement.core_of(task)
            assert core is not None and core.cluster.cluster_id == "little"
            assert task.name in governor.market.tasks
        metrics = sim.run(16.0)  # replug at t=10, then recovery
        assert injector.stats() == {
            **injector.stats(),
            "unplugs": 1,
            "replugs": 1,
        }
        assert "big" not in sim.offline_clusters
        # The governor moved work back: big is powered and populated.
        placed_clusters = {
            sim.placement.core_of(task).cluster.cluster_id
            for task in sim.active_tasks()
        }
        assert "big" in placed_clusters
        # QoS is restored within bounded time of the replug.
        recovery = metrics.recovery_time_s(after_s=10.0, settle_s=0.5, dt=sim.dt)
        assert recovery is not None and recovery < 10.0
        # The books survived: no audit violation after the replug settled.
        settled = 10.0 + recovery
        late_violations = [
            v
            for v in metrics.audit_violations
            if float(v.split(":")[0][2:]) > settled
        ]
        assert late_violations == []
        # And a fresh strict audit of the final state is clean.
        report = MarketAuditor(governor.market, strict=False).audit_now()
        assert report.ok, report.violations
