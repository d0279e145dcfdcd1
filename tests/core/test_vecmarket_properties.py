"""Property tests for the vectorized market kernels (:mod:`repro.core.vecmarket`).

Two kinds of guarantee, both driven by hypothesis:

* **Market invariants** -- prices never negative, settled bids respect the
  ``[bmin, budget]`` clamp, savings stay within the cap, purchases are
  non-negative and a priced core's purchases recover its supply.
* **Scalar-oracle agreement** -- every kernel must reproduce the
  per-agent scalar arithmetic (``TaskAgent.place_bid``, ``Wallet.settle``,
  ``CoreAgent``'s ``sum(bids)/S_c``, ``distribute_allowance``'s
  priority split) *bit for bit*, because replay journals and golden
  telemetry digests depend on exact float identity.

The scheduler's grant kernel is tested next to the scalar rule, in
``tests/sim/test_scheduler.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.agents import TaskAgent
from repro.core.money import Wallet
from repro.core.vecmarket import (
    clear_prices,
    grants_at_prices,
    ordered_core_sums,
    settle_bids,
    share_allowance,
    update_unsatisfied_rounds,
)

N_CORES = 4


def _approx(x, rel=1e-9):
    return pytest.approx(x, rel=rel, abs=1e-12)


# Supplies are either exactly zero (gated core) or far enough from the
# subnormal range that sum/supply cannot overflow to inf and trip numpy's
# RuntimeWarning -- the engine never produces subnormal supplies.
_pos = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-3, max_value=1e6, allow_nan=False),
)
_money = st.floats(min_value=0.0, max_value=1e4, allow_nan=False)

# One task row: (core index, bid, demand, supply, allowance, savings)
_rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=N_CORES - 1),
        _money, _money, _money, _money, _money,
    ),
    min_size=1,
    max_size=16,
)


def _unpack(rows):
    core_ix = np.asarray([r[0] for r in rows], dtype=np.intp)
    cols = [np.asarray([r[i] for r in rows], dtype=float) for i in range(1, 6)]
    return (core_ix, *cols)


class TestOrderedCoreSums:
    @settings(max_examples=200, deadline=None)
    @given(rows=_rows)
    def test_matches_left_to_right_fold(self, rows):
        core_ix, bids, *_ = _unpack(rows)
        sums = ordered_core_sums(bids, core_ix, N_CORES)
        for c in range(N_CORES):
            total = 0.0
            for i, b in zip(core_ix, bids):
                if i == c:
                    total += float(b)
            assert sums[c] == total  # exact: bincount folds in input order


class TestClearPrices:
    @settings(max_examples=200, deadline=None)
    @given(rows=_rows, supplies=st.lists(_pos, min_size=N_CORES, max_size=N_CORES))
    def test_non_negative_and_matches_scalar(self, rows, supplies):
        core_ix, bids, *_ = _unpack(rows)
        sup = np.asarray(supplies, dtype=float)
        prices = clear_prices(bids, core_ix, N_CORES, sup)
        assert (prices >= 0.0).all()
        for c in range(N_CORES):
            core_bids = [float(b) for i, b in zip(core_ix, bids) if i == c]
            if not core_bids or sup[c] <= 0.0:
                expect = 0.0
            else:
                # CoreAgent.discover_price: sum(bids) / S_c
                total = 0.0
                for b in core_bids:
                    total += b
                expect = total / float(sup[c])
            assert prices[c] == expect

    @settings(max_examples=100, deadline=None)
    @given(rows=_rows)
    def test_supplyless_core_prices_zero(self, rows):
        core_ix, bids, *_ = _unpack(rows)
        prices = clear_prices(bids, core_ix, N_CORES, np.zeros(N_CORES))
        assert (prices == 0.0).all()


class TestGrantsAtPrices:
    @settings(max_examples=200, deadline=None)
    @given(rows=_rows, supplies=st.lists(
        st.floats(min_value=0.1, max_value=1e3, allow_nan=False),
        min_size=N_CORES, max_size=N_CORES))
    def test_non_negative_and_matches_scalar(self, rows, supplies):
        core_ix, bids, *_ = _unpack(rows)
        sup = np.asarray(supplies, dtype=float)
        prices = clear_prices(bids, core_ix, N_CORES, sup)
        grants = grants_at_prices(bids, core_ix, prices)
        assert (grants >= 0.0).all()
        for k in range(len(bids)):
            p = float(prices[core_ix[k]])
            expect = float(bids[k]) / p if p > 0.0 else 0.0
            assert grants[k] == expect

    @settings(max_examples=100, deadline=None)
    @given(rows=_rows, supplies=st.lists(
        st.floats(min_value=0.1, max_value=1e3, allow_nan=False),
        min_size=N_CORES, max_size=N_CORES))
    def test_purchases_cover_supply(self, rows, supplies):
        """Sum of purchases on a priced core recovers S_c (pro-rata split)."""
        core_ix, bids, *_ = _unpack(rows)
        sup = np.asarray(supplies, dtype=float)
        prices = clear_prices(bids, core_ix, N_CORES, sup)
        grants = grants_at_prices(bids, core_ix, prices)
        bought = ordered_core_sums(grants, core_ix, N_CORES)
        for c in range(N_CORES):
            if prices[c] > 0.0:
                # Real-math identity sum(b/P) = S_c; per-task division
                # rounding across mixed-magnitude bids leaves ~1e-7 rel.
                assert bought[c] == _approx(float(sup[c]), rel=1e-6)


class TestSettleBids:
    @settings(max_examples=300, deadline=None)
    @given(
        rows=_rows,
        price=st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
        bmin=st.floats(min_value=1e-6, max_value=1.0, allow_nan=False),
        cap=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    )
    def test_budget_clamps_and_scalar_agreement(self, rows, price, bmin, cap):
        core_ix, bid, demand, supply, allowance, savings = _unpack(rows)
        new_bid, new_savings = settle_bids(
            bid, demand, supply, np.full(len(bid), price), allowance, savings,
            bmin, cap)
        # Invariants: bid floor, budget ceiling (unless destitute), savings
        # within [0, cap * allowance] -- no money creation.
        assert (new_bid >= bmin).all()
        budget = allowance + savings
        assert (new_bid <= np.maximum(bmin, budget)).all()
        assert (new_savings >= 0.0).all()
        assert (new_savings <= cap * allowance).all()
        # Bit-exact against TaskAgent.place_bid + Wallet.settle.
        for k in range(len(bid)):
            agent = TaskAgent(
                "t%d" % k, 1,
                wallet=Wallet(allowance=float(allowance[k]),
                              savings=float(savings[k])),
                bid=float(bid[k]), demand=float(demand[k]),
                supply=float(supply[k]))
            scalar_bid = agent.place_bid(price, bmin, cap)
            assert new_bid[k] == scalar_bid
            assert new_savings[k] == agent.wallet.savings


class TestShareAllowance:
    @settings(max_examples=200, deadline=None)
    @given(
        assigns=st.lists(
            st.tuples(st.integers(min_value=0, max_value=2),
                      st.integers(min_value=1, max_value=8)),
            min_size=1, max_size=16),
        allowances=st.lists(_money, min_size=3, max_size=3),
    )
    def test_conserves_and_matches_scalar(self, assigns, allowances):
        cluster_ix = np.asarray([a[0] for a in assigns], dtype=np.intp)
        prio = np.asarray([a[1] for a in assigns], dtype=float)
        cluster_allowance = np.asarray(allowances, dtype=float)
        shares = share_allowance(prio, cluster_ix, cluster_allowance)
        assert (shares >= 0.0).all()
        for v in range(3):
            members = [k for k in range(len(assigns)) if cluster_ix[k] == v]
            if not members:
                continue
            # distribute_allowance: a_t = A_v * r_t / R_v
            psum = sum(int(prio[k]) for k in members)
            for k in members:
                expect = float(cluster_allowance[v]) * float(prio[k]) / psum
                assert shares[k] == expect
            # Budget conservation: the split hands out A_v, no more.
            assert sum(float(shares[k]) for k in members) == _approx(
                float(cluster_allowance[v]))


class TestUnsatisfiedRounds:
    @settings(max_examples=200, deadline=None)
    @given(rows=_rows, counts=st.lists(
        st.integers(min_value=0, max_value=50), min_size=1, max_size=16))
    def test_matches_note_round_outcome(self, rows, counts):
        core_ix, bid, demand, supply, *_ = _unpack(rows)
        n = len(bid)
        unsat = np.asarray((counts * n)[:n], dtype=np.int64)
        out = update_unsatisfied_rounds(unsat, demand, supply)
        for k in range(n):
            agent = TaskAgent("t%d" % k, 1, demand=float(demand[k]),
                              supply=float(supply[k]))
            agent.unsatisfied_rounds = int(unsat[k])
            agent.note_round_outcome()
            assert int(out[k]) == agent.unsatisfied_rounds
