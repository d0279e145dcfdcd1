"""Unit tests for per-core supply dispatch, scalar and vectorised."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import compute_grants
from repro.sim.scheduler import compute_grants_batch
from repro.tasks import make_task


def tasks(n):
    return [make_task("swaptions", "l") for _ in range(n)]


class TestExplicitAllocations:
    def test_honoured_exactly_when_they_fit(self):
        a, b = tasks(2)
        grants = compute_grants(1000.0, [a, b], {a: 300.0, b: 500.0}, {})
        assert grants[a] == 300.0
        assert grants[b] == 500.0

    def test_scaled_down_when_oversubscribed(self):
        a, b = tasks(2)
        grants = compute_grants(600.0, [a, b], {a: 400.0, b: 800.0}, {})
        assert grants[a] == pytest.approx(200.0)
        assert grants[b] == pytest.approx(400.0)

    def test_negative_allocation_treated_as_zero(self):
        (a,) = tasks(1)
        grants = compute_grants(500.0, [a], {a: -10.0}, {})
        assert grants[a] == 0.0


class TestWeightedPool:
    def test_equal_weights_split_evenly(self):
        a, b = tasks(2)
        grants = compute_grants(900.0, [a, b], {}, {})
        assert grants[a] == pytest.approx(450.0)
        assert grants[b] == pytest.approx(450.0)

    def test_weights_respected(self):
        a, b = tasks(2)
        grants = compute_grants(900.0, [a, b], {}, {a: 2.0, b: 1.0})
        assert grants[a] == pytest.approx(600.0)
        assert grants[b] == pytest.approx(300.0)

    def test_pool_gets_leftover_after_explicit(self):
        a, b = tasks(2)
        grants = compute_grants(1000.0, [a, b], {a: 400.0}, {})
        assert grants[a] == 400.0
        assert grants[b] == pytest.approx(600.0)

    def test_all_zero_weights_fall_back_to_even_split(self):
        a, b = tasks(2)
        grants = compute_grants(800.0, [a, b], {}, {a: 0.0, b: 0.0})
        assert grants[a] == grants[b] == pytest.approx(400.0)


class TestEdgeCases:
    def test_no_tasks(self):
        assert compute_grants(500.0, [], {}, {}) == {}

    def test_zero_supply(self):
        a, b = tasks(2)
        grants = compute_grants(0.0, [a, b], {a: 100.0}, {})
        assert grants == {a: 0.0, b: 0.0}

    def test_negative_supply_rejected(self):
        with pytest.raises(ValueError):
            compute_grants(-1.0, [], {}, {})

    def test_no_leftover_for_pool_when_explicit_saturates(self):
        a, b = tasks(2)
        grants = compute_grants(500.0, [a, b], {a: 500.0}, {})
        assert grants[a] == 500.0
        assert grants[b] == 0.0


class TestInvariants:
    @given(
        st.floats(min_value=0, max_value=5000),
        st.lists(st.floats(min_value=0, max_value=2000), min_size=0, max_size=5),
        st.lists(st.floats(min_value=0, max_value=5), min_size=0, max_size=5),
    )
    def test_grants_bounded_by_supply_and_non_negative(
        self, supply, allocations, weights
    ):
        all_tasks = tasks(len(allocations) + len(weights))
        explicit = dict(zip(all_tasks, allocations))
        weighted = dict(zip(all_tasks[len(allocations):], weights))
        grants = compute_grants(supply, all_tasks, explicit, weighted)
        assert all(g >= 0.0 for g in grants.values())
        assert sum(grants.values()) <= supply + 1e-6
        assert set(grants) == set(all_tasks)


N_CORES = 4


def _clamp(values):
    """``max(0.0, v)`` per value, as the columnar engine clamps its inputs."""
    arr = np.asarray(values, dtype=float)
    return np.where(arr > 0.0, arr, 0.0)


# Supplies are zero (a gated core) or clear of the subnormal range, as
# the engine's are.  Allocations and weights may be negative, zero or
# -0.0 (the scalar rule clamps them), and weights subnormal: a single
# 5e-324 weight is what the scalar overshoot guard is there for.
_supply = st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1e6))
_alloc = st.one_of(st.just(-0.0), st.floats(min_value=-50.0, max_value=1e4))
_weight = st.one_of(
    st.just(0.0), st.just(5e-324), st.floats(min_value=-1.0, max_value=100.0)
)
# One row: (core, explicit on a mixed core, allocation, weight, runnable).
_row = st.tuples(
    st.integers(min_value=0, max_value=N_CORES - 1),
    st.booleans(),
    _alloc,
    _weight,
    st.booleans(),
)


def _bits(x):
    return float(x).hex()


class TestComputeGrantsBatch:
    """The vectorised rule is per-core ``compute_grants``, bit for bit."""

    @settings(max_examples=400, deadline=None)
    @given(
        rows=st.lists(_row, min_size=1, max_size=24),
        modes=st.lists(
            st.sampled_from(["explicit", "pooled", "mixed"]),
            min_size=N_CORES,
            max_size=N_CORES,
        ),
        supplies=st.lists(_supply, min_size=N_CORES, max_size=N_CORES),
        masked=st.booleans(),
    )
    def test_matches_scalar_compute_grants(self, rows, modes, supplies, masked):
        core_ix = np.asarray([r[0] for r in rows], dtype=np.intp)
        has_alloc = np.asarray(
            [modes[r[0]] == "explicit" or (modes[r[0]] == "mixed" and r[1]) for r in rows],
            dtype=bool,
        )
        alloc = np.where(has_alloc, _clamp([r[2] for r in rows]), 0.0)
        weights = _clamp([r[3] for r in rows])
        sup = np.asarray(supplies, dtype=float)
        # A masked tick passes its runnable rows; the others are rows
        # that have not started, have ended or are frozen.
        runs = [r[4] or not masked for r in rows]
        runnable = np.asarray(runs, dtype=bool) if masked else None

        grants = compute_grants_batch(
            core_ix, N_CORES, sup, alloc, has_alloc, weights, runnable
        )
        assert (grants >= 0.0).all()

        names = ["t%d" % k for k in range(len(rows))]
        for c in range(N_CORES):
            members = [k for k in range(len(rows)) if core_ix[k] == c]
            tasks = [names[k] for k in members if runs[k]]
            allocations = {names[k]: rows[k][2] for k in members if has_alloc[k]}
            wmap = {names[k]: rows[k][3] for k in members}
            scalar = compute_grants(float(sup[c]), tasks, allocations, wmap)
            # In-order fold never exceeds supply past the rounding guard.
            total = 0.0
            for name in tasks:
                total += scalar[name]
            assert total <= float(sup[c]) * (1.0 + 1e-9)
            for k in members:
                want = scalar[names[k]] if runs[k] else 0.0
                assert _bits(grants[k]) == _bits(want), (
                    "core %d row %d (%s, runnable=%s): %r vs %r"
                    % (c, k, modes[c], runs[k], float(grants[k]), want)
                )

    def test_subnormal_weight_takes_the_overshoot_guard(self):
        # leftover * 5e-324 rounds to 3 * 5e-324, so the proportional
        # share comes out 3.0 > 2.6 and the guard scales it back.
        assert (2.6 * 5e-324) / 5e-324 > 2.6
        scalar = compute_grants(2.6, ["a"], {}, {"a": 5e-324})
        grants = compute_grants_batch(
            np.zeros(1, dtype=np.intp),
            1,
            np.asarray([2.6]),
            np.zeros(1),
            np.zeros(1, dtype=bool),
            np.asarray([5e-324]),
        )
        assert _bits(grants[0]) == _bits(scalar["a"])
        assert grants[0] <= 2.6 * (1.0 + 1e-9)
