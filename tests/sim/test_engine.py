"""Unit and integration tests for the simulation engine."""

import pytest

from repro.experiments.harness import make_governor
from repro.governors import BaseGovernor, MaxFrequencyGovernor
from repro.hw import tc2_chip
from repro.sim import SimConfig, Simulation
from repro.tasks import build_workload, make_task


def make_sim(tasks, governor=None, dt=0.01, auto_gate=True, warmup=0.0):
    return Simulation(
        tc2_chip(),
        tasks,
        governor or BaseGovernor(),
        config=SimConfig(dt=dt, auto_power_gate=auto_gate, metrics_warmup_s=warmup),
    )


class TestRunLoop:
    def test_run_advances_time_in_ticks(self):
        sim = make_sim([make_task("swaptions", "l")])
        sim.run(0.1)
        assert sim.now == pytest.approx(0.1)
        assert sim.tick_index == 10

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            make_sim([]).run(-1.0)

    def test_zero_dt_rejected(self):
        with pytest.raises(ValueError):
            make_sim([], dt=0.0)

    def test_metrics_recorded_every_tick(self):
        sim = make_sim([make_task("swaptions", "l")])
        sim.run(0.05)
        assert len(sim.metrics.samples) == 5


class TestPlacementDefaults:
    def test_new_tasks_land_on_little(self):
        task = make_task("swaptions", "l")
        sim = make_sim([task])
        sim.run(0.01)
        assert sim.placement.core_of(task).cluster.cluster_id == "little"

    def test_tasks_spread_over_little_cores(self):
        tasks = [make_task("swaptions", "l") for _ in range(3)]
        sim = make_sim(tasks)
        sim.run(0.01)
        cores = {sim.placement.core_of(t).core_id for t in tasks}
        assert cores == {"little.0", "little.1", "little.2"}

    def test_governor_place_task_hook_wins(self):
        class PinToBig(BaseGovernor):
            def place_task(self, sim, task):
                sim.place(task, sim.chip.core("big.0"))

        task = make_task("swaptions", "l")
        sim = make_sim([task], governor=PinToBig())
        sim.run(0.01)
        assert sim.placement.core_of(task).core_id == "big.0"


class TestPowerGating:
    def test_empty_cluster_powered_down(self):
        sim = make_sim([make_task("swaptions", "l")])
        sim.run(0.02)
        assert not sim.chip.cluster("big").powered
        assert sim.chip.cluster("little").powered

    def test_cluster_powers_up_when_task_arrives(self):
        task = make_task("swaptions", "l")
        sim = make_sim([task])
        sim.run(0.02)
        sim.migrate(task, sim.chip.core("big.0"))
        sim.run(0.02)
        assert sim.chip.cluster("big").powered
        assert not sim.chip.cluster("little").powered

    def test_hold_keeps_cluster_down(self):
        task = make_task("swaptions", "l")
        sim = make_sim([task])
        sim.run(0.02)
        sim.migrate(task, sim.chip.core("big.0"))
        sim.power_down(sim.chip.cluster("big"), hold=True)
        sim.run(0.02)
        assert not sim.chip.cluster("big").powered
        sim.power_up(sim.chip.cluster("big"))
        sim.run(0.02)
        assert sim.chip.cluster("big").powered

    def test_gating_can_be_disabled(self):
        sim = make_sim([make_task("swaptions", "l")], auto_gate=False)
        sim.run(0.02)
        assert sim.chip.cluster("big").powered


class TestDispatch:
    def test_task_makes_progress(self):
        task = make_task("swaptions", "l")
        sim = make_sim([task], governor=MaxFrequencyGovernor())
        sim.run(1.0)
        assert task.total_beats > 0
        assert task.observed_heart_rate() > 0

    def test_frozen_task_receives_nothing(self):
        task = make_task("swaptions", "l")
        sim = make_sim([task])
        task.frozen_until = 10.0
        sim.run(0.1)
        assert task.total_beats == 0.0
        assert task.last_supply_pus == 0.0

    def test_explicit_allocation_respected(self):
        a = make_task("swaptions", "l", task_name="a")
        b = make_task("swaptions", "l", task_name="b")
        sim = make_sim([a, b])
        sim.run(0.01)  # place both
        core = sim.placement.core_of(a)
        sim.place(b, core)  # co-locate
        sim.set_allocation(a, 100.0)
        sim.set_allocation(b, 200.0)
        sim.run(0.01)
        assert a.last_supply_pus == pytest.approx(100.0)
        assert b.last_supply_pus == pytest.approx(200.0)

    def test_utilization_reflects_consumption(self):
        task = make_task("swaptions", "l")  # demand 420 PUs
        sim = make_sim([task], governor=MaxFrequencyGovernor())
        sim.run(1.0)
        core = sim.placement.core_of(task)
        # At 1000 MHz the work-limited task cannot saturate the core.
        assert 0.1 < core.utilization < 1.0


class TestTaskLifecycleInEngine:
    def test_task_arrival_mid_run(self):
        late = make_task("swaptions", "l", start_time=0.05)
        sim = make_sim([late])
        sim.run(0.04)
        assert not sim.placement.is_placed(late)
        sim.run(0.04)
        assert sim.placement.is_placed(late)

    def test_task_departure_releases_core(self):
        brief = make_task("swaptions", "l", duration=0.05)
        sim = make_sim([brief])
        sim.run(0.02)
        assert sim.placement.is_placed(brief)
        sim.run(0.1)
        assert not sim.placement.is_placed(brief)
        # Both clusters empty -> everything gated off.
        assert not sim.chip.cluster("little").powered

    @pytest.mark.parametrize("lifetime", [None, 100.0], ids=["unbounded", "finite"])
    def test_task_placed_before_its_start_keeps_its_core(self, lifetime):
        """Retirement unplaces ended tasks only, whatever the other tasks' lifetimes."""
        chip = tc2_chip()
        tasks = build_workload("m1")
        tasks[0].duration = lifetime
        late = tasks[1]
        late.start_time = 1.0
        sim = Simulation(
            chip, tasks, make_governor("HL", power_cap_w=8.0), config=SimConfig(seed=5)
        )
        sim.place(late, chip.core("big.1"))
        sim.step()
        assert not late.is_active(sim.now)
        assert sim.placement.core_of(late) is chip.core("big.1")

    def test_weights_api(self):
        task = make_task("swaptions", "l")
        sim = make_sim([task])
        sim.set_weight(task, 3.0)
        assert sim.weight_of(task) == 3.0
        assert sim.allocation_of(task) is None
        sim.set_allocation(task, 50.0)
        assert sim.allocation_of(task) == 50.0
        sim.clear_allocation(task)
        assert sim.allocation_of(task) is None


class TestGovernorInteraction:
    def test_prepare_called_once(self):
        calls = []

        class Probe(BaseGovernor):
            def prepare(self, sim):
                calls.append("prepare")

            def on_tick(self, sim):
                calls.append("tick")

        sim = make_sim([make_task("swaptions", "l")], governor=Probe())
        sim.run(0.03)
        assert calls.count("prepare") == 1
        assert calls.count("tick") == 3

    def test_dvfs_request_goes_through_regulator(self):
        task = make_task("swaptions", "l")
        sim = make_sim([task], governor=MaxFrequencyGovernor())
        sim.run(0.05)
        little = sim.chip.cluster("little")
        assert little.frequency_mhz == little.vf_table.max_level.frequency_mhz


class TestConfigValidation:
    def test_negative_warmup_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(metrics_warmup_s=-0.1)

    def test_negative_sensor_noise_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(sensor_noise_std_w=-0.5)

    def test_boundary_values_accepted(self):
        SimConfig(metrics_warmup_s=0.0, sensor_noise_std_w=0.0)


class TestSeedStreams:
    def test_derive_stream_seed_is_deterministic_and_stream_scoped(self):
        from repro.sim import derive_stream_seed

        assert derive_stream_seed(1, "a") == derive_stream_seed(1, "a")
        assert derive_stream_seed(1, "a") != derive_stream_seed(1, "b")
        assert derive_stream_seed(1, "a") != derive_stream_seed(2, "a")
        assert derive_stream_seed(None, "a") is None

    def test_sensor_noise_reproducible_across_runs(self):
        def powers(seed):
            sim = Simulation(
                tc2_chip(),
                [make_task("swaptions", "l")],
                BaseGovernor(),
                config=SimConfig(sensor_noise_std_w=0.3, seed=seed),
            )
            return [s.chip_power_w for s in sim.run(0.3).samples]

        assert powers(21) == powers(21)
        assert powers(21) != powers(22)


class TestAuditWiring:
    def test_audit_flag_attaches_nonstrict_auditor_to_ppm(self):
        from repro.core import PPMGovernor

        sim = Simulation(
            tc2_chip(),
            [make_task("swaptions", "l")],
            PPMGovernor(),
            config=SimConfig(audit=True),
        )
        metrics = sim.run(0.5)
        assert sim.auditor is not None
        assert not sim.auditor.strict
        assert sim.auditor.rounds_audited > 0
        assert metrics.audit_violation_count() == 0  # healthy run is clean

    def test_audit_off_by_default_and_for_marketless_governors(self):
        sim = make_sim([make_task("swaptions", "l")])
        sim.run(0.1)
        assert sim.auditor is None
        plain = Simulation(
            tc2_chip(),
            [make_task("swaptions", "l")],
            BaseGovernor(),
            config=SimConfig(audit=True),
        )
        plain.run(0.1)
        assert plain.auditor is None  # no market to audit

    def test_audit_violations_surface_in_metrics(self):
        from repro.core import PPMGovernor

        governor = PPMGovernor()
        sim = Simulation(
            tc2_chip(),
            [make_task("swaptions", "l")],
            governor,
            config=SimConfig(audit=True),
        )
        sim.run(0.5)
        # Corrupt an invariant behind the market's back -- after the
        # round settles, so settlement cannot heal it before the audit
        # runs.  The per-round audit must catch and timestamp it.
        real_round = governor.market.run_round

        def corrupting(obs):
            result = real_round(obs)
            agent = next(iter(governor.market.tasks.values()))
            agent.wallet.savings = -5.0
            return result

        governor.market.run_round = corrupting
        sim.run(0.2)
        assert sim.metrics.audit_violation_count() > 0
        assert all(v.startswith("t=") for v in sim.metrics.audit_violations)
        assert any("I3" in v for v in sim.metrics.audit_violations)
