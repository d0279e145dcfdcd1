"""Online power-estimator and estimator-supervisor tests.

Covers the RLS fit (bounded coefficients, convergence on clean data),
the config validation contract, and the supervisor's degradation ladder
(one rung at a time, hysteresis-guarded recovery) driven directly with
synthetic health scores.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.powerest import (
    N_FEATURES,
    ClusterPowerEstimator,
    EstimationConfig,
    EstimationManager,
    PowerEstimator,
)
from repro.core.resilience import (
    _ESTIMATOR_ENTRY,
    EstimatorState,
    EstimatorSupervisor,
)
from repro.hw import tc2_chip

#: Ladder order is the enum's definition order, healthy first.
ESTIMATOR_RUNGS = list(EstimatorState)


class TestEstimationConfigValidation:
    def test_defaults_are_valid(self):
        EstimationConfig()

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"forgetting": 0.0}, "forgetting factor must be in"),
            ({"forgetting": 1.1}, "forgetting factor must be in"),
            ({"ridge": 0.0}, "ridge must be positive"),
            ({"innovation_window": 1}, "innovation_window must be at least 2"),
            ({"warmup_ticks": 0}, "warmup_ticks must be at least 1"),
            ({"check_period_s": 0.0}, "check_period_s must be positive"),
            ({"innovation_gate_w": 0.0}, "innovation_gate_w must be positive"),
            (
                {"innovation_clamp_w": 0.5},
                "innovation_clamp_w must be at least innovation_gate_w",
            ),
            ({"margin_factor": 1.0}, "margin_factor must exceed 1"),
            ({"hysteresis": -0.1}, "hysteresis must be non-negative"),
            ({"recovery_checks": 0}, "recovery_checks must be at least 1"),
            ({"counters": object()}, "counters must be a CounterConfig"),
        ],
    )
    def test_bad_values_rejected_with_context(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            EstimationConfig(**kwargs)


def make_rls(forgetting=0.995, ridge=1.0, window=32):
    return ClusterPowerEstimator(forgetting, ridge, window)


features = st.lists(
    st.floats(min_value=0.0, max_value=10.0), min_size=4, max_size=4
).map(lambda xs: [1.0] + xs)
targets = st.floats(min_value=0.0, max_value=20.0)


class TestClusterPowerEstimatorProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(features, targets), min_size=1, max_size=120))
    def test_coefficients_stay_bounded_and_finite(self, pairs):
        """Bounded inputs never blow the fit up -- every weight stays
        finite and within a generous envelope of the target scale."""
        rls = make_rls()
        for x, y in pairs:
            rls.update(x, y)
        assert all(math.isfinite(w) for w in rls.weights)
        assert all(abs(w) < 1e4 for w in rls.weights)
        assert math.isfinite(rls.innovation_ewma)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-2.0, max_value=2.0),
            min_size=N_FEATURES,
            max_size=N_FEATURES,
        ),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_converges_on_clean_linear_data(self, true_weights, seed):
        """Noise-free data from a linear model is learned near-exactly."""
        import random

        rng = random.Random(seed)
        rls = make_rls()
        for _ in range(400):
            x = [1.0] + [rng.uniform(0.0, 5.0) for _ in range(N_FEATURES - 1)]
            y = sum(w * v for w, v in zip(true_weights, x))
            rls.update(x, y)
        probe = [1.0] + [rng.uniform(0.0, 5.0) for _ in range(N_FEATURES - 1)]
        truth = sum(w * v for w, v in zip(true_weights, probe))
        assert rls.predict(probe) == pytest.approx(truth, abs=0.05)

    def test_frozen_holds_coefficients_but_tracks_innovation(self):
        rls = make_rls()
        for i in range(50):
            rls.update([1.0, 1.0, 2.0, 0.5, 0.1], 3.0)
        rls.frozen = True
        weights = list(rls.weights)
        before_ewma = rls.innovation_ewma
        rls.update([1.0, 1.0, 2.0, 0.5, 0.1], 9.0)  # big surprise
        assert rls.weights == weights
        assert rls.innovation_ewma > before_ewma

    def test_snapshot_roundtrip_is_exact(self):
        rls = make_rls()
        for i in range(20):
            rls.update([1.0, float(i % 3), 2.0, 0.5, 0.1], 2.0 + 0.1 * i)
        clone = make_rls()
        clone.restore_state(rls.snapshot_state())
        x = [1.0, 1.5, 2.0, 0.5, 0.2]
        assert clone.predict(x) == rls.predict(x)
        assert clone.snapshot_state() == rls.snapshot_state()


class _StubSim:
    """Minimal clock for driving the supervisor's ladder directly."""

    def __init__(self):
        self.now = 0.0


class _StubEstimator:
    """Health-score source the ladder property tests control exactly."""

    def __init__(self):
        self.score = 0.0
        self.frozen = False

    def health_score(self):
        return self.score

    def freeze(self):
        self.frozen = True

    def unfreeze(self):
        self.frozen = False


def drive(supervisor, sim, estimator, scores):
    """Feed one ladder evaluation per score; returns visited states."""
    visited = [supervisor.state]
    for score in scores:
        estimator.score = score
        sim.now += supervisor.config.check_period_s
        supervisor._evaluate(sim, estimator)
        visited.append(supervisor.state)
    return visited


def make_supervisor(**kwargs):
    config = EstimationConfig(**kwargs)
    return (
        EstimatorSupervisor(config, {"big": 8.0, "little": 2.0}),
        _StubSim(),
        _StubEstimator(),
    )


class TestEstimatorLadderProperties:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=20.0), min_size=1, max_size=60
        )
    )
    def test_never_skips_a_rung(self, scores):
        supervisor, sim, estimator = make_supervisor()
        visited = drive(supervisor, sim, estimator, scores)
        for old, new in zip(visited, visited[1:]):
            assert abs(
                ESTIMATOR_RUNGS.index(new) - ESTIMATOR_RUNGS.index(old)
            ) <= 1

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=20.0), min_size=1, max_size=60
        )
    )
    def test_transitions_match_visited_states(self, scores):
        supervisor, sim, estimator = make_supervisor()
        visited = drive(supervisor, sim, estimator, scores)
        changes = [
            (old.value, new.value)
            for old, new in zip(visited, visited[1:])
            if old is not new
        ]
        assert [(t[1], t[2]) for t in supervisor.transitions] == changes

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=6))
    def test_recovery_needs_consecutive_healthy_checks(self, recovery_checks):
        supervisor, sim, estimator = make_supervisor(
            recovery_checks=recovery_checks
        )
        drive(supervisor, sim, estimator, [1.5])  # escalate to FROZEN
        assert supervisor.state is EstimatorState.FROZEN
        # recovery_checks - 1 healthy evaluations are not enough...
        drive(supervisor, sim, estimator, [0.0] * (recovery_checks - 1))
        assert supervisor.state is EstimatorState.FROZEN
        # ...and a single relapse resets the count entirely.
        drive(supervisor, sim, estimator, [1.5])
        drive(supervisor, sim, estimator, [0.0] * (recovery_checks - 1))
        assert supervisor.state is EstimatorState.FROZEN
        drive(supervisor, sim, estimator, [0.0])
        assert supervisor.state is EstimatorState.HEALTHY

    def test_hysteresis_blocks_descent_at_the_edge(self):
        supervisor, sim, estimator = make_supervisor(
            hysteresis=0.25, recovery_checks=1
        )
        drive(supervisor, sim, estimator, [1.5])
        assert supervisor.state is EstimatorState.FROZEN
        # Just under entry but inside the hysteresis band: stays put.
        entry = _ESTIMATOR_ENTRY[EstimatorState.FROZEN]
        drive(supervisor, sim, estimator, [entry - 0.1] * 10)
        assert supervisor.state is EstimatorState.FROZEN
        drive(supervisor, sim, estimator, [entry - 0.3])
        assert supervisor.state is EstimatorState.HEALTHY

    def test_freeze_follows_served_rungs_only(self):
        """The model is held while its output is served (frozen/margin)
        and learns while out of the loop (healthy/fallback)."""
        supervisor, sim, estimator = make_supervisor(recovery_checks=1)
        drive(supervisor, sim, estimator, [1.5])
        assert estimator.frozen  # FROZEN: output served, model held
        drive(supervisor, sim, estimator, [2.5])
        assert estimator.frozen  # MARGIN: still served, still held
        drive(supervisor, sim, estimator, [5.0])
        assert supervisor.state is EstimatorState.FALLBACK
        assert not estimator.frozen  # shadow retraining behind metered
        drive(supervisor, sim, estimator, [0.0])
        assert supervisor.state is EstimatorState.MARGIN
        assert estimator.frozen

    def test_snapshot_roundtrip(self):
        supervisor, sim, estimator = make_supervisor()
        drive(supervisor, sim, estimator, [1.5, 2.5, 5.0, 0.0, 0.0])
        clone = EstimatorSupervisor(
            supervisor.config, {"big": 8.0, "little": 2.0}
        )
        clone.restore_state(supervisor.snapshot_state())
        assert clone.state is supervisor.state
        assert clone.transitions == supervisor.transitions
        assert clone.stats() == supervisor.stats()


class TestPowerEstimatorAggregate:
    def test_health_score_is_worst_cluster(self):
        chip = tc2_chip()
        estimator = PowerEstimator(chip, EstimationConfig())
        estimator.estimator_for("big").innovation_ewma = 0.4
        estimator.estimator_for("little").innovation_ewma = 1.2
        assert estimator.health_score() == pytest.approx(1.2)

    def test_confidence_decays_with_innovation(self):
        chip = tc2_chip()
        estimator = PowerEstimator(chip, EstimationConfig())
        estimator.estimator_for("big").innovation_ewma = 0.0
        estimator.estimator_for("little").innovation_ewma = 3.0
        estimates = estimator.estimates()
        assert estimates["big"].confidence == pytest.approx(1.0)
        assert estimates["little"].confidence == pytest.approx(0.25)

    def test_manager_serves_metered_during_warmup(self):
        from repro.experiments.harness import make_governor
        from repro.sim import SimConfig, Simulation
        from repro.tasks import build_workload

        config = EstimationConfig(warmup_ticks=10_000)  # never warms up
        sim = Simulation(
            tc2_chip(),
            build_workload("m1"),
            make_governor("PPM", power_cap_w=4.0),
            config=SimConfig(seed=2, estimation=config),
        )
        sim.run(0.5)
        manager = sim.estimation
        assert isinstance(manager, EstimationManager)
        assert not manager.warmed_up
        metered = sim.metered_power_sample()
        assert sim.last_power_sample() is manager.served_sample
        assert manager.served_sample.chip_power_w == metered.chip_power_w
