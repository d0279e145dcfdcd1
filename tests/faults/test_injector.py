"""Integration tests for the fault injector against the live engine.

Every fault kind is driven through a real simulation; assertions check
both the injected failure (the fault is visible) and the engine-level
containment (nothing crashes, accounting stays finite).
"""

import math

import pytest

from repro.core import AdmissionController, OverloadManager
from repro.experiments.harness import make_governor
from repro.experiments.overload import build_overload_arrivals
from repro.faults import FaultInjector, FaultKind, single_fault
from repro.governors import MaxFrequencyGovernor
from repro.hw import tc2_chip
from repro.hw.sensors import SensorReadError
from repro.sim import SimConfig, Simulation
from repro.sim.columnar import ColumnarSimulation
from repro.sim.engine import ObjectSimulation
from repro.tasks import ArrivalStream, build_workload, make_task


def _sim(tasks, governor=None, **config):
    return Simulation(
        tc2_chip(),
        tasks,
        governor or MaxFrequencyGovernor(),
        config=SimConfig(**config),
    )


def _samples_between(metrics, start, end):
    return [s for s in metrics.samples if start <= s.time_s < end]


class TestSensorFaults:
    def test_dropout_raises_from_sensor_and_engine_substitutes(self):
        sim = _sim([make_task("x264", "l")], sensor_noise_std_w=0.2, seed=11)
        schedule = single_fault(FaultKind.SENSOR_DROPOUT, 0.5, 0.3)
        injector = FaultInjector(sim, schedule).attach()
        metrics = sim.run(1.2)
        # The wrapped sensor raised for every tick of the window ...
        dropouts = injector.stats()["sensor_dropouts"]
        assert 25 <= dropouts <= 31
        assert sim.sensor_read_failures == dropouts
        # ... and the engine served the last good reading instead: the
        # metrics stream has no gap and stays frozen over the window,
        # while the noisy readings outside it keep varying.
        window = _samples_between(metrics, 0.52, 0.78)
        assert len({s.chip_power_w for s in window}) == 1
        outside = _samples_between(metrics, 0.85, 1.2)
        assert len({s.chip_power_w for s in outside}) > 1
        assert all(math.isfinite(s.chip_power_w) for s in metrics.samples)

    def test_dropout_from_first_tick_yields_zero_power(self):
        sim = _sim([make_task("x264", "l")], seed=11)
        FaultInjector(sim, single_fault(FaultKind.SENSOR_DROPOUT, 0.0, 0.2)).attach()
        metrics = sim.run(0.1)
        # No good sample ever existed: the engine substitutes zeros
        # rather than fabricating a reading.
        assert all(s.chip_power_w == 0.0 for s in metrics.samples)

    def test_stuck_sensor_repeats_last_reading(self):
        sim = _sim([make_task("x264", "l")], sensor_noise_std_w=0.2, seed=5)
        schedule = single_fault(FaultKind.SENSOR_STUCK, 0.5, 0.3)
        injector = FaultInjector(sim, schedule).attach()
        metrics = sim.run(1.2)
        window = {s.chip_power_w for s in _samples_between(metrics, 0.5, 0.8)}
        outside = {s.chip_power_w for s in _samples_between(metrics, 0.8, 1.2)}
        assert len(window) == 1  # bit-identical stale register
        assert len(outside) > 1  # noise resumes after the window
        assert injector.stats()["sensor_stuck_reads"] > 0

    def test_cluster_targeted_stuck_freezes_only_that_cluster(self):
        tasks = build_workload("m2")
        sim = _sim(tasks, sensor_noise_std_w=0.2, seed=5)
        schedule = single_fault(FaultKind.SENSOR_STUCK, 0.5, 0.3, target="big")
        FaultInjector(sim, schedule).attach()
        metrics = sim.run(1.0)
        window = _samples_between(metrics, 0.51, 0.8)
        big = {s.cluster_power_w["big"] for s in window}
        little = {s.cluster_power_w["little"] for s in window}
        assert len(big) == 1
        assert len(little) > 1
        # Chip total is re-summed from the doctored cluster readings.
        for s in window:
            assert s.chip_power_w == pytest.approx(sum(s.cluster_power_w.values()))

    def test_spike_multiplies_power_by_magnitude(self):
        sim = _sim([make_task("x264", "l")], seed=3)
        schedule = single_fault(FaultKind.SENSOR_SPIKE, 0.5, 0.2, magnitude=4.0)
        injector = FaultInjector(sim, schedule).attach()
        metrics = sim.run(1.0)
        spiked = [s.chip_power_w for s in _samples_between(metrics, 0.51, 0.7)]
        clean = [s.chip_power_w for s in _samples_between(metrics, 0.75, 1.0)]
        assert min(spiked) > 2.0 * (sum(clean) / len(clean))
        assert injector.stats()["sensor_spikes"] > 0


class TestActuationFaults:
    def test_dvfs_drop_loses_requests_until_window_closes(self):
        sim = _sim([make_task("x264", "l"), make_task("h264", "s")])
        schedule = single_fault(FaultKind.DVFS_DROP, 0.0, 0.5, target="big")
        injector = FaultInjector(sim, schedule).attach()
        big = sim.chip.cluster("big")
        top = big.vf_table.max_index
        sim.run(0.4)
        assert big.regulator.target_index != top  # writes were eaten
        assert injector.stats()["dvfs_dropped"] > 0
        sim.run(0.4)  # window closed; the governor re-requests every tick
        assert big.regulator.target_index == top

    def test_dvfs_delay_applies_requests_late(self):
        sim = _sim([make_task("x264", "l"), make_task("h264", "s")])
        schedule = single_fault(
            FaultKind.DVFS_DELAY, 0.0, 0.2, target="big", delay_ticks=10
        )
        injector = FaultInjector(sim, schedule).attach()
        big = sim.chip.cluster("big")
        top = big.vf_table.max_index
        sim.run(0.05)  # 5 ticks: first request still in flight
        assert big.regulator.target_index != top
        sim.run(0.25)
        assert big.regulator.target_index == top  # delivered ~10 ticks in
        assert injector.stats()["dvfs_delayed"] > 0

    def test_untargeted_dvfs_drop_affects_all_clusters(self):
        sim = _sim([make_task("x264", "l"), make_task("h264", "s")])
        FaultInjector(sim, single_fault(FaultKind.DVFS_DROP, 0.0, 10.0)).attach()
        sim.run(0.5)
        for cluster in sim.chip.clusters:
            assert cluster.regulator.target_index != cluster.vf_table.max_index

    def test_migration_fault_returns_failed_record_in_place(self):
        task = make_task("x264", "l")
        sim = _sim([task])
        schedule = single_fault(FaultKind.MIGRATION_FAIL, 0.0, 5.0, target=task.name)
        injector = FaultInjector(sim, schedule).attach()
        sim.run(0.1)
        source = sim.placement.core_of(task)
        destination = sim.chip.cluster("big").cores[0]
        assert source is not destination
        record = sim.migrate(task, destination)
        assert record.failed
        assert sim.placement.core_of(task) is source  # did not move
        assert sim.failed_migrations == 1
        assert injector.stats()["migrations_failed"] == 1


class TestHeartbeatFaults:
    def test_lost_heartbeats_collapse_observed_rate_not_progress(self):
        task = make_task("x264", "l")
        sim = _sim([task])
        schedule = single_fault(FaultKind.HEARTBEAT_LOSS, 1.0, 1.0, target=task.name)
        injector = FaultInjector(sim, schedule).attach()
        sim.run(1.0)
        rate_before = task.observed_heart_rate()
        beats_before = task.total_beats
        sim.run(0.95)  # deep inside the loss window
        assert task.total_beats > beats_before  # work continued
        assert task.observed_heart_rate() < 0.5 * rate_before  # monitor blind
        assert injector.stats()["heartbeats_lost"] > 0
        sim.run(1.5)  # window over: monitor sees fresh beats again
        assert task.observed_heart_rate() > 0.5 * rate_before

    @pytest.mark.parametrize("admission", [False, True], ids=["baseline", "admission"])
    @pytest.mark.parametrize("engine", [ObjectSimulation, ColumnarSimulation])
    def test_window_covers_tasks_that_arrive(self, engine, admission):
        chip = tc2_chip()
        sim = engine(
            chip,
            build_workload("l1"),
            make_governor("PPM", power_cap_w=10.0),
            config=SimConfig(seed=3, metrics_warmup_s=3.0),
        )
        arrivals = ArrivalStream(build_overload_arrivals(chip, 20.0, 3.0), seed=3)
        controller = AdmissionController() if admission else None
        manager = OverloadManager(arrivals, controller).attach(sim)
        FaultInjector(sim, single_fault(FaultKind.HEARTBEAT_LOSS, 8.0, 6.0)).attach()
        sim.run(12.0)
        live = [t for t in sim.tasks if t.is_active(sim.now) and t.start_time < 11.0]
        assert any(t in manager.spawned_tasks for t in live)
        assert [(t.name, t.observed_heart_rate()) for t in live] == [
            (t.name, 0.0) for t in live
        ]


class TestHotplugFaults:
    def test_unplug_evicts_and_replug_restores(self):
        tasks = build_workload("m2")
        sim = _sim(tasks)
        schedule = single_fault(FaultKind.HOTPLUG, 0.5, 0.5, target="big")
        injector = FaultInjector(sim, schedule).attach()
        sim.run(0.8)  # mid-window
        assert "big" in sim.offline_clusters
        assert not sim.chip.cluster("big").powered
        for task in sim.active_tasks():
            core = sim.placement.core_of(task)
            assert core is not None
            assert core.cluster.cluster_id == "little"
        sim.run(0.5)  # past the window
        assert "big" not in sim.offline_clusters
        stats = injector.stats()
        assert stats["unplugs"] == 1
        assert stats["replugs"] == 1

    def test_unplugged_cluster_rejects_control(self):
        sim = _sim(build_workload("m2"))
        FaultInjector(sim, single_fault(FaultKind.HOTPLUG, 0.0, 5.0, target="big")).attach()
        sim.run(0.1)
        big = sim.chip.cluster("big")
        sim.power_up(big)
        assert not big.powered  # power-up refused while offline
        record = sim.migrate(sim.active_tasks()[0], big.cores[0])
        assert record.failed
        with pytest.raises(ValueError):
            sim.place(sim.active_tasks()[0], big.cores[0])

    def test_empty_cluster_unplug_still_counts(self):
        # m2's little-heavy placement can leave big empty; unplug must
        # be observable regardless of displaced tasks.
        sim = _sim([make_task("swaptions", "l")])
        injector = FaultInjector(
            sim, single_fault(FaultKind.HOTPLUG, 0.2, 0.3, target="big")
        ).attach()
        sim.run(1.0)
        assert injector.stats()["unplugs"] == 1
        assert injector.stats()["replugs"] == 1

    def test_overlapping_windows_replug_once_at_the_end(self):
        sim = _sim(build_workload("m2"))
        schedule = single_fault(FaultKind.HOTPLUG, 0.2, 0.6, target="big").extended(
            single_fault(FaultKind.HOTPLUG, 0.4, 0.8, target="big").events
        )
        injector = FaultInjector(sim, schedule).attach()
        sim.run(1.0)  # first window closed, second still open
        assert "big" in sim.offline_clusters
        sim.run(0.5)
        assert "big" not in sim.offline_clusters
        assert injector.stats()["unplugs"] == 1  # second window found it out
        assert injector.stats()["replugs"] == 1


class TestInjectorLifecycle:
    def test_attach_twice_rejected(self):
        sim = _sim([])
        injector = FaultInjector(sim, single_fault(FaultKind.SENSOR_DROPOUT, 0.0, 1.0))
        injector.attach()
        with pytest.raises(RuntimeError):
            injector.attach()

    def test_second_injector_on_one_simulation_rejected(self):
        sim = _sim([])
        FaultInjector(sim, single_fault(FaultKind.DVFS_DROP, 0.0, 1.0)).attach()
        with pytest.raises(RuntimeError):
            FaultInjector(sim, single_fault(FaultKind.DVFS_DELAY, 0.0, 1.0)).attach()

    def test_stats_keys_cover_all_fault_kinds(self):
        sim = _sim([])
        injector = FaultInjector(sim, single_fault(FaultKind.SENSOR_DROPOUT, 0.0, 1.0))
        injector.attach()
        stats = injector.stats()
        assert set(stats) == {
            "sensor_dropouts",
            "sensor_stuck_reads",
            "sensor_spikes",
            "dvfs_dropped",
            "dvfs_delayed",
            "migrations_failed",
            "heartbeats_lost",
            "unplugs",
            "replugs",
            "cooling_degraded_ticks",
            "runaway_ticks",
            "thermal_stuck_reads",
            "drift_ticks",
            "counter_bias_reads",
            "counter_dropout_reads",
        }
        assert all(v == 0 for v in stats.values())

    def test_empty_schedule_is_transparent(self):
        from repro.faults import FaultSchedule

        baseline = _sim([make_task("x264", "l")], seed=9)
        baseline_metrics = baseline.run(1.0)
        injected = _sim([make_task("x264", "l")], seed=9)
        FaultInjector(injected, FaultSchedule()).attach()
        injected_metrics = injected.run(1.0)
        assert [s.chip_power_w for s in injected_metrics.samples] == [
            s.chip_power_w for s in baseline_metrics.samples
        ]
