"""Vectorized market-clearing kernels (struct-of-arrays fast path).

The round protocol in :mod:`repro.core.market` is defined agent-by-agent;
at fleet scale the per-agent Python loops dominate the tick budget.  This
module re-states the per-agent arithmetic as NumPy array kernels so one
round prices every core and settles every wallet in a handful of
vectorized passes.

Exactness contract: every kernel reproduces the scalar loop bit-for-bit.

* Elementwise arithmetic (bid updates, wallet settlement, pro-rata
  grants) maps 1:1 onto IEEE-754 scalar operations, so vectorizing it
  cannot change a single bit.
* Per-core reductions use :func:`numpy.bincount` with weights, which
  accumulates strictly in input order -- the same left-to-right fold as
  the ``sum()`` over a core's agent list it replaces.  (``np.sum`` and
  ``np.add.reduceat`` use pairwise summation and would NOT be
  equivalent; they must never be substituted here.)

The property suite (``tests/core/test_vecmarket_properties.py``) checks
both the market invariants and exact agreement with the scalar oracle on
random bid matrices.
"""

from __future__ import annotations

import numpy as np


def ordered_core_sums(values: "np.ndarray", core_ix: "np.ndarray", n_cores: int) -> "np.ndarray":
    """Per-core left-to-right fold of ``values`` (bit-exact vs ``sum()``).

    ``np.bincount`` adds the weights in input order, so for tasks listed
    in per-core registration order this equals the scalar accumulation
    over each core's agent list, bit for bit.
    """
    return np.bincount(core_ix, weights=values, minlength=n_cores)


def clear_prices(
    bids: "np.ndarray",
    core_ix: "np.ndarray",
    n_cores: int,
    supplies: "np.ndarray",
) -> "np.ndarray":
    """Price per core: ``P_c = sum(bids) / S_c``; 0 for empty/supply-less cores."""
    sums = ordered_core_sums(bids, core_ix, n_cores)
    counts = np.bincount(core_ix, minlength=n_cores)
    safe = np.where(supplies > 0.0, supplies, 1.0)
    prices = np.where(supplies > 0.0, sums / safe, 0.0)
    return np.where(counts > 0, prices, 0.0)


def grants_at_prices(
    bids: "np.ndarray", core_ix: "np.ndarray", prices: "np.ndarray"
) -> "np.ndarray":
    """Supply purchased per task: ``s_t = b_t / P_c`` (0 on a priceless core)."""
    p = prices[core_ix]
    return np.where(p > 0.0, bids / np.where(p > 0.0, p, 1.0), 0.0)


def settle_bids(
    bid: "np.ndarray",
    demand: "np.ndarray",
    supply: "np.ndarray",
    last_price: "np.ndarray",
    allowance: "np.ndarray",
    savings: "np.ndarray",
    bmin: float,
    cap_fraction: float,
):
    """Equation 1 bidding plus wallet settlement, elementwise.

    Mirrors ``TaskAgent.place_bid``/``Wallet.settle``: the desired bid
    ``b + (d - s) * P`` is clamped into ``[bmin, allowance + savings]``,
    then unspent allowance folds into savings, clamped to
    ``[0, cap_fraction * allowance]``.  Returns ``(new_bid, new_savings)``.
    """
    desired = bid + (demand - supply) * last_price
    budget = allowance + savings
    new_bid = np.maximum(bmin, np.minimum(desired, budget))
    new_savings = savings + allowance - new_bid
    new_savings = np.maximum(new_savings, 0.0)
    new_savings = np.minimum(new_savings, cap_fraction * allowance)
    return new_bid, new_savings


def share_allowance(
    priorities: "np.ndarray",
    cluster_ix: "np.ndarray",
    cluster_allowance: "np.ndarray",
) -> "np.ndarray":
    """Priority-proportional within-cluster allowance split.

    ``a_t = A_v * r_t / R_v`` with ``R_v`` the integer priority sum of the
    cluster's tasks (integer accumulation is order-independent and exact).
    """
    psum = np.bincount(cluster_ix, weights=priorities, minlength=len(cluster_allowance))
    return cluster_allowance[cluster_ix] * priorities / psum[cluster_ix]


def update_unsatisfied_rounds(
    unsatisfied: "np.ndarray", demand: "np.ndarray", supply: "np.ndarray"
) -> "np.ndarray":
    """Persistence counter: ++ while under-supplied by >2 %, else reset."""
    return np.where(demand > supply * 1.02, unsatisfied + 1, 0)


__all__ = [
    "ordered_core_sums",
    "clear_prices",
    "grants_at_prices",
    "settle_bids",
    "share_allowance",
    "update_unsatisfied_rounds",
]
