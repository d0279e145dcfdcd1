"""Per-core supply dispatch: explicit allocations plus weighted fair share.

The paper's kernel modules realise the market allocation by steering the
Linux fair scheduler through per-task nice values; here we grant supply
directly.  A governor can pin an explicit PU allocation per task (the PPM
market does), assign scheduling weights (HPM's PID output, HL's plain
fairness), or leave tasks alone (equal weights).

Explicit allocations are honoured exactly when they fit; if they exceed
the core's supply (e.g. the cluster's frequency just dropped under the
market's feet) they are scaled down proportionally, which is what a
share-based scheduler would do.  Remaining supply after explicit
allocations is split among weighted tasks by weight.

:func:`compute_grants_batch` states the same rule over every core at
once, for the columnar engine.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from ..tasks.task import Task


def compute_grants(
    core_supply_pus: float,
    tasks: Sequence[Task],
    allocations: Mapping[Task, float],
    weights: Mapping[Task, float],
) -> Dict[Task, float]:
    """Split a core's supply among its tasks.

    Args:
        core_supply_pus: The core's current supply ``S_c``.
        tasks: Runnable tasks mapped to the core.
        allocations: Explicit per-task PU grants (tasks present here are
            *not* part of the fair-share pool).
        weights: Scheduling weights for tasks without explicit
            allocations; missing tasks default to weight 1.0.

    Returns:
        PUs granted to each task this tick.  The sum never exceeds the
        core's supply.
    """
    if core_supply_pus < 0:
        raise ValueError("core supply must be non-negative")
    grants: Dict[Task, float] = {}
    if not tasks:
        return grants
    if core_supply_pus == 0.0:
        return {task: 0.0 for task in tasks}

    # Single pass: partition tasks and accumulate the explicit request in
    # the same left-to-right order the two-pass version used, so the float
    # sums keep their exact bits.
    explicit: list = []
    explicit_vals: list = []
    pooled: list = []
    requested = 0.0
    for t in tasks:
        if t in allocations:
            v = max(0.0, allocations[t])
            explicit.append(t)
            explicit_vals.append(v)
            requested += v
        else:
            pooled.append(t)

    scale = 1.0
    if requested > core_supply_pus and requested > 0.0:
        scale = core_supply_pus / requested
    granted_total = 0.0
    for task, v in zip(explicit, explicit_vals):
        g = v * scale
        grants[task] = g
        granted_total += g

    leftover = core_supply_pus - granted_total
    if pooled and leftover > 0.0:
        pooled_weights = [max(0.0, weights.get(t, 1.0)) for t in pooled]
        total_weight = 0.0
        for w in pooled_weights:
            total_weight += w
        if total_weight <= 0.0:
            share = leftover / len(pooled)
            for task in pooled:
                grants[task] = share
        else:
            for task, w in zip(pooled, pooled_weights):
                grants[task] = leftover * w / total_weight
    else:
        for task in pooled:
            grants[task] = 0.0
    # Subnormal weights can defeat the proportional split above: with a
    # single weight of 5e-324, ``leftover * w / total_weight`` rounds
    # through the subnormal range and can exceed the leftover itself.
    # Rescale only on a material overshoot so ordinary 1-ulp rounding
    # noise keeps its exact bits (replay journals depend on them).
    # Fold in task (dispatch) order -- not dict insertion order -- so the
    # batched kernel's in-order bincount reduction matches bit-for-bit.
    total = 0.0
    for t in tasks:
        total += grants[t]
    if total > core_supply_pus * (1.0 + 1e-9):
        factor = core_supply_pus / total
        for task in grants:
            grants[task] *= factor
    return grants


def compute_grants_batch(
    core_ix: "np.ndarray",
    n_cores: int,
    supplies: "np.ndarray",
    alloc: "np.ndarray",
    has_alloc: "np.ndarray",
    weights: "np.ndarray",
    runnable: Optional["np.ndarray"] = None,
) -> "np.ndarray":
    """:func:`compute_grants` on every core at once, bit for bit.

    Per-core sums are ``np.bincount`` folds, which add in row order: the
    scalar rule's left-to-right loops over a core's tasks, given rows in
    per-core dispatch order.  (``np.sum`` folds pairwise and must not
    replace them.)  Each row's arithmetic is the scalar expression.

    Args:
        core_ix: Core index per row, rows in per-core dispatch order.
        n_cores: Number of cores.
        supplies: Supply in PUs per core, non-negative.
        alloc: Explicit allocation per row, already ``max(0, .)``-clamped
            and 0.0 where ``has_alloc`` is False.
        has_alloc: Whether the row has an explicit allocation.
        weights: Fair-share weight per row, already ``max(0, .)``-clamped.
        runnable: The rows that run this tick (every row when ``None``):
            the scalar rule's ``tasks``.  Every other row is granted +0.0
            and adds nothing to its core's sums.
    """
    if runnable is None:
        pooled = ~has_alloc
    else:
        alloc = np.where(runnable, alloc, 0.0)
        pooled = runnable & ~has_alloc
    requested = np.bincount(core_ix, weights=alloc, minlength=n_cores)
    scaled = requested > supplies  # so requested > 0.0 too
    scale = np.where(scaled, supplies / np.where(scaled, requested, 1.0), 1.0)
    grants = alloc * scale[core_ix]
    # The fair-share arm, skipped when every row has an explicit allocation.
    if pooled.any():
        leftover = (supplies - np.bincount(core_ix, weights=grants, minlength=n_cores))[core_ix]
        w = np.where(pooled, weights, 0.0)
        total_w = np.bincount(core_ix, weights=w, minlength=n_cores)[core_ix]
        n_pooled = np.bincount(core_ix[pooled], minlength=n_cores)[core_ix]
        share = np.where(
            total_w > 0.0,
            (leftover * w) / np.where(total_w > 0.0, total_w, 1.0),
            leftover / np.where(n_pooled > 0, n_pooled, 1),
        )
        grants = np.where(pooled & (leftover > 0.0), share, grants)
    # The scalar rule's overshoot guard, on the row-order fold.
    total = np.bincount(core_ix, weights=grants, minlength=n_cores)
    over = total > supplies * (1.0 + 1e-9)
    if over.any():
        grants = grants * np.where(over, supplies / np.where(over, total, 1.0), 1.0)[core_ix]
    return grants
