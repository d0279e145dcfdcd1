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

A differential then runs whole markets through both clearing paths,
``Market.run_round``'s scalar steps and ``_run_clearing_vectorized``,
round after round, and holds every output and every agent equal.

The scheduler's grant kernel is tested next to the scalar rule, in
``tests/sim/test_scheduler.py``.
"""

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.market as market_module
from repro.core.agents import TaskAgent
from repro.core.config import MarketConfig
from repro.core.market import Market, MarketObservations
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


# -- scalar steps vs the vectorized clearing, whole rounds -------------------

CLUSTERS = {
    "little": (["l0", "l1", "l2"], [250.0, 400.0, 600.0, 800.0, 1000.0]),
    "big": (["b0", "b1"], [500.0, 900.0, 1300.0, 1700.0]),
}
CORES = [core for cores, _ladder in CLUSTERS.values() for core in cores]


def _market(priorities, cores, wtdp):
    market = Market(MarketConfig(wtdp=wtdp))
    for cluster_id, (core_ids, ladder) in CLUSTERS.items():
        market.add_cluster(cluster_id, core_ids, ladder)
    for i, (priority, core) in enumerate(zip(priorities, cores)):
        market.add_task("t%d" % i, priority, core)
    return market


def _demand(rng):
    """Mostly positive demands, with zeros, -0.0 and negatives mixed in."""
    r = rng.random()
    if r < 0.1:
        return 0.0
    if r < 0.15:
        return -0.0
    if r < 0.25:
        return -rng.uniform(0.0, 500.0)
    return rng.uniform(1.0, 2500.0)


def _round_outputs(market, result):
    """Everything the two paths must agree on, floats as ``float.hex``."""
    agents = market.tasks
    supplies = [float.hex(v) for v in result.supplies.tolist()]
    # The column's rows are the agents'.
    assert supplies == [float.hex(agents[tid].supply) for tid in result.task_ids]
    assert sorted(result.task_ids) == sorted(agents)
    return (
        result.task_ids,
        supplies,
        [(core, float.hex(p)) for core, p in result.prices.items()],
        result.level_requests,
        [
            (
                tid,
                float.hex(a.bid),
                float.hex(a.supply),
                float.hex(a.wallet.savings),
                float.hex(a.wallet.allowance),
                a.unsatisfied_rounds,
            )
            for tid, a in agents.items()
        ],
    )


class TestScalarVectorClearing:
    """The scalar steps and ``_run_clearing_vectorized``, bit for bit.

    ``Market.run_round`` takes the vectorized clearing from
    ``VEC_MIN_TASKS`` market tasks up; patching the threshold forces
    either path at any size.  Each example draws 1-60 tasks and runs up
    to 25 rounds: tasks move between rounds, the regulators take 0-2
    rounds to apply a requested level (so clusters freeze, observe and
    trade again), and demands include zero, -0.0 and negative values.
    """

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=60),
        rounds=st.integers(min_value=1, max_value=25),
        wtdp=st.sampled_from([None, 2.5, 4.0]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_paths_agree_round_after_round(self, n, rounds, wtdp, seed):
        rng = random.Random(seed)
        priorities = [rng.randint(1, 8) for _ in range(n)]
        cores = [rng.choice(CORES) for _ in range(n)]
        scalar = _market(priorities, cores, wtdp)
        vector = _market(priorities, cores, wtdp)
        # cluster -> [applied level, target level, rounds still in transition]
        regulators = {cid: [0, 0, 0] for cid in CLUSTERS}
        for _round in range(rounds):
            if rng.random() < 0.4:
                for _move in range(rng.randint(1, 3)):
                    task_id, core = "t%d" % rng.randrange(n), rng.choice(CORES)
                    scalar.move_task(task_id, core)
                    vector.move_task(task_id, core)
            power = rng.uniform(0.0, 8.0)
            share = rng.random()
            obs = MarketObservations(
                demands={"t%d" % i: _demand(rng) for i in range(n)},
                cluster_level={cid: reg[0] for cid, reg in regulators.items()},
                cluster_in_transition={
                    cid: reg[2] > 0 for cid, reg in regulators.items()
                },
                chip_power_w=power,
                cluster_power_w={"little": power * share, "big": power * (1.0 - share)},
            )
            with mock.patch.object(market_module, "VEC_MIN_TASKS", 10**9):
                scalar_result = scalar.run_round(obs)
            with mock.patch.object(market_module, "VEC_MIN_TASKS", 0):
                vector_result = vector.run_round(obs)
            assert _round_outputs(scalar, scalar_result) == _round_outputs(
                vector, vector_result
            )
            for reg in regulators.values():
                if reg[2] > 0:
                    reg[2] -= 1
                    if reg[2] == 0:
                        reg[0] = reg[1]
            for cid, level in scalar_result.level_requests.items():
                reg = regulators[cid]
                reg[1] = max(0, min(len(CLUSTERS[cid][1]) - 1, level))
                reg[2] = rng.randint(0, 2)
                if reg[2] == 0:
                    reg[0] = reg[1]
