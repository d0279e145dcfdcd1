"""Batched steady-state mapping evaluation (vectorized LBT search).

The LBT module's proposal sweep evaluates thousands of candidate moves
against one frozen market state; :class:`SteadyStateEstimator._evaluate`
walks every task of the affected clusters per candidate in Python.  This
module evaluates a whole sweep as arrays.

The LBT hands over candidate blocks (:class:`CandidateBlock`): one source
cluster's constrained core, the movers on it and the target cores, whose
candidates are movers x targets.  Each candidate becomes one row on its
source cluster and one on its destination cluster (a single row when they
match).  A row is a set of columns (:class:`RowColumns`), not an object:

* up to two ``(core slot, demand delta, priority delta)`` adjustments of
  the cluster's base per-core sums;
* the masked roster column -- the mover, leaving its source -- or -1;
* the mover's core slot, demand and priority on the destination, or -1.

Each cluster's rows are evaluated in a handful of array passes over a
``[rows, tasks]`` ratio/bid matrix, and the verdicts are the candidate
loop's expressions applied elementwise, returned as arrays in candidate
order (:class:`Verdicts`).

Per-task arithmetic is elementwise and bit-identical to the scalar
estimator; per-core demand sums are in-order ``bincount`` folds (also
bit-identical).  Aggregate ``spend`` values use ``np.sum`` (pairwise) and
may differ from the scalar dict-order fold in the last ulp, which is why
the LBT gates this path on the same population threshold as the market
kernels: a given run takes one path or the other consistently, on either
simulation engine.

Decision logic equivalence with :func:`repro.core.estimation.perf_improves`
(descending-priority sweep): an improved task qualifies iff no worsened
task has strictly higher priority, so the sweep returns True iff
``max(prio | improved) >= max(prio | worsened)`` with ``-inf`` maxima for
empty sets and at least one improvement.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, NamedTuple

import numpy as np

_EPS = 1e-9
_NEG_INF = float("-inf")
#: Dense-matrix budget for one candidate-evaluation chunk (elements of a
#: ``rows x tasks`` temporary); keeps the working set cache-resident
#: instead of allocating gigabytes when both dimensions are in the
#: thousands.
_CHUNK_ELEMS = 2_000_000
#: Below this many dense ``rows x tasks`` elements the straight matrix
#: evaluation beats the grouped one's fixed overhead (tiling, signature
#: sorting, top-two reductions).  The gate is a pure function of the
#: population, so a given market state always takes the same path on
#: either engine; ``max`` reductions are bit-identical between the two
#: paths anyway, only aggregate ``spend`` has the documented last-ulp
#: fold freedom.
_GROUPED_MIN_ELEMS = 65_536


class CandidateBlock(NamedTuple):
    """One source core's candidates: every mover times every target core.

    A target core depends only on its cluster and the source core, so a
    block's candidates are ``movers x target_cores``, mover-major.
    """

    source_cluster: str
    source_core: str
    movers: List[str]
    target_cores: List[str]

    @property
    def size(self) -> int:
        return len(self.movers) * len(self.target_cores)


class Verdicts(NamedTuple):
    """Decision quantities of a sweep's candidates, in candidate order."""

    perf_improves: np.ndarray
    perf_not_worse: np.ndarray
    mover_priority: np.ndarray
    mover_ratio_current: np.ndarray
    mover_ratio_candidate: np.ndarray
    spend_current: np.ndarray
    spend_candidate: np.ndarray


class RowColumns(NamedTuple):
    """One cluster's candidate rows, one array per column."""

    a1_slot: np.ndarray  #: first adjusted core slot
    a1_dd: np.ndarray  #: its demand delta
    a1_dp: np.ndarray  #: its priority delta
    a2_slot: np.ndarray  #: second adjusted core slot, or -1
    a2_dd: np.ndarray
    a2_dp: np.ndarray
    mask: np.ndarray  #: roster column left out (the mover leaving), or -1
    mv_slot: np.ndarray  #: the mover's core slot on this cluster, or -1
    mv_d: np.ndarray  #: the mover's demand here
    mv_p: np.ndarray  #: the mover's priority


class _RowState(NamedTuple):
    """Per-row cluster state: each row's adjusted core sums resolved."""

    present: np.ndarray  #: the cluster has demand
    level: np.ndarray  #: target V-F level
    cs: np.ndarray  #: per-core supply at that level
    sat: np.ndarray  #: [rows, cores] saturated cores
    psum: np.ndarray  #: [rows, cores] priority sums
    price: np.ndarray  #: price per PU at the level


_ROW_DEFAULTS = {"a2_slot": -1, "a2_dd": 0.0, "a2_dp": 0.0, "mask": -1,
                 "mv_slot": -1, "mv_d": 0.0, "mv_p": 0.0}
_SLOT_COLUMNS = frozenset(("a1_slot", "a2_slot", "mask", "mv_slot"))


class _RowBuilder:
    """Collects one cluster's rows, a run of equal-shaped rows at a time."""

    __slots__ = ("parts", "count")

    def __init__(self):
        self.parts: List[tuple] = []
        self.count = 0

    def add(self, n: int, **columns) -> int:
        """Append ``n`` rows (scalars broadcast); returns the first row."""
        first = self.count
        self.parts.append((n, columns))
        self.count += n
        return first

    def columns(self) -> RowColumns:
        out = {}
        for name in RowColumns._fields:
            dtype = np.intp if name in _SLOT_COLUMNS else float
            out[name] = np.concatenate([
                np.broadcast_to(
                    np.asarray(cols.get(name, _ROW_DEFAULTS.get(name)), dtype=dtype),
                    (n,),
                )
                for n, cols in self.parts
            ])
        return RowColumns(**out)


class _ClusterBase:
    """Per-cluster arrays for proposal sweeps.

    Split into a *structural* part -- roster, slot maps, priorities and
    their per-core sums, all functions of ``market._tasks_by_core`` alone
    and therefore cacheable against ``market.structure_stamp`` and
    patched by the market's moves (:meth:`replay`) -- and a
    *per-proposal* part (:meth:`refresh`): demands, in-order core demand
    sums and the current-mapping row, which change every market round.
    """

    __slots__ = (
        "cluster_id", "ladder", "max_index", "tids", "prio",
        "profile", "core_slot", "slot_of_core", "d", "S", "psum", "n_tasks",
        "n_cores", "cur_present", "cur_ratio", "cur_spend", "stamp",
        "moves_seen", "seq",
    )

    def __init__(self, market, cluster_id: str, estimator):
        cluster = market.clusters[cluster_id]
        self.cluster_id = cluster_id
        self.ladder = np.asarray(cluster.supply_ladder)
        self.max_index = cluster.max_index
        self.slot_of_core = {
            core_id: slot for slot, core_id in enumerate(cluster.core_ids)
        }
        tids: List[str] = []
        core_slot: List[int] = []
        for slot, core_id in enumerate(cluster.core_ids):
            for tid in market._tasks_by_core[core_id]:
                tids.append(tid)
                core_slot.append(slot)
        self.tids = tids
        self.n_tasks = len(tids)
        self.n_cores = len(cluster.core_ids)
        self.prio = np.asarray(
            [float(market.tasks[tid].priority) for tid in tids]
        )
        #: The estimator's profile rows (``None`` without them), for the
        #: demands of movers leaving this cluster.
        self.profile = estimator.profile_columns(tids)
        self.core_slot = np.asarray(core_slot, dtype=np.intp)
        if self.n_tasks:
            self.psum = np.bincount(
                self.core_slot, weights=self.prio, minlength=self.n_cores
            )
        else:
            self.psum = np.zeros(self.n_cores)
        self.stamp = market.structure_stamp
        self.moves_seen = len(market.moves)
        self.seq = -1  # no proposal data yet; refresh() must run first

    def replay(self, market, estimator) -> None:
        """Patch the roster with the market moves it has not seen.

        A move takes one task out of its source core's block and puts it
        into the target core's block in registration order, as
        ``Market.move_task`` does, so the result equals a rebuild.
        """
        seqs = market._task_seq
        tids = self.tids
        for task_id, src, dst in market.moves[self.moves_seen:]:
            if src in self.slot_of_core:
                i = tids.index(task_id)
                del tids[i]
                self.prio = np.delete(self.prio, i)
                if self.profile is not None:
                    self.profile = np.delete(self.profile, i, axis=0)
                self.core_slot = np.delete(self.core_slot, i)
            slot = self.slot_of_core.get(dst)
            if slot is not None:
                lo = int(np.searchsorted(self.core_slot, slot, side="left"))
                hi = int(np.searchsorted(self.core_slot, slot, side="right"))
                block = [seqs[tid] for tid in tids[lo:hi]]
                j = lo + bisect.bisect_left(block, seqs[task_id])
                tids.insert(j, task_id)
                self.prio = np.insert(
                    self.prio, j, float(market.tasks[task_id].priority)
                )
                if self.profile is not None:
                    self.profile = np.insert(
                        self.profile, j, estimator.profile_columns([task_id]), axis=0
                    )
                self.core_slot = np.insert(self.core_slot, j, slot)
        self.n_tasks = len(tids)
        if self.n_tasks:
            self.psum = np.bincount(
                self.core_slot, weights=self.prio, minlength=self.n_cores
            )
        else:
            self.psum = np.zeros(self.n_cores)
        self.moves_seen = len(market.moves)
        self.seq = -1

    def refresh(self, estimator) -> None:
        """Per-proposal arrays: demands and their in-order core sums."""
        d = estimator.demand_array(self.tids, self.cluster_id)
        if d is None:
            d = np.asarray(
                [estimator._demand(tid, self.cluster_id) for tid in self.tids]
            )
        self.d = d
        if self.n_tasks:
            self.S = np.bincount(
                self.core_slot, weights=d, minlength=self.n_cores
            )
        else:
            self.S = np.zeros(self.n_cores)


class BatchMappingEvaluator:
    """Evaluates one proposal sweep's candidate blocks as arrays.

    Held persistently by the LBT module across proposals of one run: the
    structural cluster arrays (roster, slot maps, priority sums) are
    cached against ``market.structure_stamp``, patched by moves and
    survive between proposals, while demand-dependent state is
    re-derived lazily per cluster after each :meth:`begin_proposal`.  The
    market must stay frozen for the duration of one sweep, like the
    estimator's own batch caches.
    """

    def __init__(self, market, estimator):
        self._market = market
        self._est = estimator
        self._bases: Dict[str, _ClusterBase] = {}
        self._seq = 0

    # -- base state ---------------------------------------------------------
    def begin_proposal(self) -> None:
        """Open one proposal sweep (one epoch of the cached evaluator).

        Structural arrays persist; each cluster's demands, core sums and
        current-mapping row refresh on first touch.  Membership changes
        (add/remove/restore) rebuild the structural arrays, via the
        market's structure stamp, and moves patch them.
        """
        self._seq += 1

    def _base(self, cluster_id: str) -> _ClusterBase:
        market = self._market
        base = self._bases.get(cluster_id)
        if base is None or base.stamp != market.structure_stamp:
            base = _ClusterBase(market, cluster_id, self._est)
            self._bases[cluster_id] = base
        elif base.moves_seen != len(market.moves):
            base.replay(market, self._est)
        if base.seq != self._seq:
            base.refresh(self._est)
            self._current(base)
            base.seq = self._seq
        return base

    def _current(self, base: _ClusterBase) -> None:
        """Current-mapping row (no adjustments) for one cluster."""
        state = self._row_state(base, base.S[None, :], base.psum[None, :])
        base.cur_present = bool(state.present[0])
        if base.cur_present and base.n_tasks:
            ratio, bids = self._task_matrices(
                base, state.cs, state.sat, state.psum, state.price
            )
            base.cur_ratio = ratio[0]
            base.cur_spend = float(np.sum(bids[0]))
        else:
            base.cur_ratio = np.zeros(base.n_tasks)
            base.cur_spend = 0.0

    def all_satisfied(self, cluster_ids) -> bool:
        """Whether the current mapping satisfies every task's demand."""
        for cluster_id in cluster_ids:
            base = self._base(cluster_id)
            if not base.cur_present or not base.n_tasks:
                continue
            if bool(np.any(base.cur_ratio < 1.0 - _EPS)):
                return False
        return True

    # -- row evaluation -----------------------------------------------------
    def _row_state(self, base: _ClusterBase, S_rows, psum_rows) -> _RowState:
        """Per-row cluster state for adjusted core-sum rows of one cluster.

        Mirrors ``SteadyStateEstimator._evaluate`` per-cluster logic: the
        cluster demand is the max core sum, the target level the first
        ladder entry covering it, the price the estimator's (memoized)
        per-(cluster, level) estimate.
        """
        n_rows = len(S_rows)
        cd = S_rows.max(axis=1) if base.n_cores else np.zeros(n_rows)
        present = cd > 0.0
        level = np.minimum(
            np.searchsorted(base.ladder, cd - _EPS, side="left"),
            base.max_index,
        )
        cs = base.ladder[level] if base.n_cores else np.zeros(n_rows)
        sat = S_rows > cs[:, None] + _EPS
        price = np.zeros(n_rows)
        # The distinct levels by ``np.bincount``: ``np.unique`` imports
        # ``numpy.ma`` on first use, about 1.2 MB of resident memory.
        for lv in np.flatnonzero(np.bincount(level[present])).tolist():
            price[present & (level == lv)] = self._est.estimate_price(
                base.cluster_id, lv
            )
        return _RowState(present, level, cs, sat, psum_rows, price)

    def _task_matrices(self, base: _ClusterBase, cs, sat, psum_rows, price):
        """Ratio/bid matrices over the roster, one row per cluster state.

        Unsaturated cores supply demand, saturated cores split
        priority-proportionally.
        """
        d = base.d[None, :]
        tsat = sat[:, base.core_slot]
        psum_t = psum_rows[:, base.core_slot]
        satsup = cs[:, None] * base.prio[None, :] / np.where(psum_t > 0.0, psum_t, 1.0)
        satsup = np.where(d > 0.0, np.minimum(satsup, d), satsup)
        supply = np.where(tsat, satsup, d)
        ratio = np.where(
            d > 0.0,
            np.minimum(1.0, supply / np.where(d > 0.0, d, 1.0)),
            1.0,
        )
        bids = np.maximum(supply * price[:, None], self._market.config.bmin)
        return ratio, bids

    # -- candidate evaluation -----------------------------------------------
    def evaluate_blocks(self, blocks: List[CandidateBlock]) -> Verdicts:
        """Verdicts for every candidate of ``blocks``, in candidate order."""
        market = self._market
        est = self._est
        rows: Dict[str, _RowBuilder] = {}
        # Per block: source cluster, destination cluster per target,
        # [movers, targets] source and destination row numbers (local to
        # each cluster's rows), mover priorities and current ratios.
        plans = []
        for block in blocks:
            src_cluster = block.source_cluster
            src = self._base(src_cluster)
            src_rows = rows.setdefault(src_cluster, _RowBuilder())
            # The movers sit in the source core's block of the roster.
            src_slot = src.slot_of_core[block.source_core]
            lo, hi = np.searchsorted(src.core_slot, [src_slot, src_slot + 1]).tolist()
            row_of = {tid: lo + j for j, tid in enumerate(src.tids[lo:hi])}
            mr = np.asarray([row_of[tid] for tid in block.movers], dtype=np.intp)
            m = len(mr)
            d = src.d[mr]
            p = src.prio[mr]
            cur = src.cur_ratio[mr] if src.cur_present else np.zeros(m)
            n_targets = len(block.target_cores)
            s_loc = np.empty((m, n_targets), dtype=np.intp)
            d_loc = np.empty((m, n_targets), dtype=np.intp)
            dst_clusters = []
            step = np.arange(m)
            for j, target_core in enumerate(block.target_cores):
                dst_cluster = market.cores[target_core].cluster_id
                dst = self._base(dst_cluster)
                dst_slot = dst.slot_of_core[target_core]
                dst_clusters.append(dst_cluster)
                if dst_cluster == src_cluster:
                    first = src_rows.add(
                        m, a1_slot=src_slot, a1_dd=-d, a1_dp=-p,
                        a2_slot=dst_slot, a2_dd=d, a2_dp=p, mask=mr,
                        mv_slot=dst_slot, mv_d=d, mv_p=p,
                    )
                    s_loc[:, j] = d_loc[:, j] = first + step
                    continue
                # The mover is not resident on the destination, so its
                # demand there comes from its source row.
                d_dst = est.cross_demand_array(
                    d,
                    None if src.profile is None else src.profile[mr],
                    src_cluster,
                    dst_cluster,
                )
                if d_dst is None:
                    d_dst = np.asarray(
                        [est._demand(tid, dst_cluster) for tid in block.movers]
                    )
                s_loc[:, j] = src_rows.add(
                    m, a1_slot=src_slot, a1_dd=-d, a1_dp=-p, mask=mr
                ) + step
                d_loc[:, j] = rows.setdefault(dst_cluster, _RowBuilder()).add(
                    m, a1_slot=dst_slot, a1_dd=d_dst, a1_dp=p,
                    mv_slot=dst_slot, mv_d=d_dst, mv_p=p,
                ) + step
            plans.append((src_cluster, dst_clusters, s_loc, d_loc, p, cur))

        # Every cluster's rows, concatenated in one order, so a candidate
        # reads its source and destination results by global row number.
        clusters = list(rows)
        bases = [self._bases[cid] for cid in clusters]
        results = [
            self._eval_cluster_rows(base, rows[cid].columns())
            for cid, base in zip(clusters, bases)
        ]
        pres, imp, wor, mabs, spend, mv_ok, mv_ratio, mv_bid = (
            np.concatenate(column) for column in zip(*results)
        )
        offset = np.cumsum([0] + [rows[cid].count for cid in clusters[:-1]])
        n_tasks = np.asarray([base.n_tasks for base in bases])
        cur_present = np.asarray([base.cur_present for base in bases])
        cur_spend = np.asarray([base.cur_spend for base in bases], dtype=float)

        # Per-candidate operands: [movers, targets] per block, raveled
        # mover-major into candidate order; ``sc``/``dc`` index clusters.
        index = {cid: k for k, cid in enumerate(clusters)}
        sc, dc, s_loc, d_loc, prio, mover_cur = (
            np.concatenate(column)
            for column in zip(*(
                (
                    np.full(s.size, index[src_cluster]),
                    np.broadcast_to([index[c] for c in dst_clusters], s.shape).ravel(),
                    s.ravel(),
                    d.ravel(),
                    np.repeat(p, s.shape[1]),
                    np.repeat(cur, s.shape[1]),
                )
                for src_cluster, dst_clusters, s, d, p, cur in plans
            ))
        )
        sr = offset[sc] + s_loc
        dr = offset[dc] + d_loc
        same = sc == dc

        # The candidate loop's expressions, elementwise.  Mover
        # bookkeeping: present in the current mapping iff its source
        # cluster contributes ratios; present in the candidate iff its
        # destination row does.
        mv_present = pres[dr] & mv_ok[dr]
        mover_cand = np.where(mv_present, mv_ratio[dr], 0.0)
        max_imp = np.maximum(imp[sr], np.where(same, _NEG_INF, imp[dr]))
        max_wor = np.maximum(wor[sr], np.where(same, _NEG_INF, wor[dr]))
        max_abs = np.maximum(mabs[sr], np.where(same, 0.0, mabs[dr]))
        max_imp = np.where(
            mv_present & (mover_cand > mover_cur + _EPS),
            np.maximum(max_imp, prio),
            max_imp,
        )
        max_wor = np.where(
            mv_present & (mover_cand < mover_cur - _EPS),
            np.maximum(max_wor, prio),
            max_wor,
        )
        max_abs = np.where(
            mv_present, np.maximum(max_abs, np.abs(mover_cand - mover_cur)), max_abs
        )
        improves = (max_imp > _NEG_INF) & (max_imp >= max_wor)
        # perf_equal's keyset test, at the union level: a cluster whose
        # presence flag flips only breaks equality if it contributes
        # tasks besides the mover (moving onto an empty cluster keeps
        # the task union identical even though the cluster wakes up).
        keysets_equal = (
            ((n_tasks[sc] <= 1) | (pres[sr] == cur_present[sc]))
            & (same | (n_tasks[dc] == 0) | (pres[dr] == cur_present[dc]))
            & (mv_present == cur_present[sc])
        )
        equal = keysets_equal & (max_abs <= _EPS)
        spend_cand = (
            spend[sr] + np.where(same, 0.0, spend[dr])
        ) + np.where(mv_present, mv_bid[dr], 0.0)
        spend_cur = cur_spend[sc] + np.where(same, 0.0, cur_spend[dc])
        return Verdicts(
            perf_improves=improves,
            perf_not_worse=equal | improves,
            mover_priority=prio,
            mover_ratio_current=mover_cur,
            mover_ratio_candidate=mover_cand,
            spend_current=spend_cur,
            spend_candidate=spend_cand,
        )

    def _eval_cluster_rows(self, base: _ClusterBase, rows: RowColumns) -> tuple:
        """All of one cluster's rows: ``(present, maxprio_imp,
        maxprio_wor, maxabs, spend, mv_ok, mv_ratio, mv_bid)`` arrays.

        Per-row cluster state and the mover's own values are exact row
        arithmetic; the roster reductions go dense or grouped by
        :data:`_GROUPED_MIN_ELEMS`.
        """
        n_rows = len(rows.mask)
        ix = np.arange(n_rows)
        S_row = np.tile(base.S, (n_rows, 1))
        psum_row = np.tile(base.psum, (n_rows, 1))
        # Each (row, slot) pair is adjusted at most once, so these adds
        # reproduce the scalar ``S[slot] + dd``.
        S_row[ix, rows.a1_slot] += rows.a1_dd
        psum_row[ix, rows.a1_slot] += rows.a1_dp
        two = np.flatnonzero(rows.a2_slot >= 0)
        S_row[two, rows.a2_slot[two]] += rows.a2_dd[two]
        psum_row[two, rows.a2_slot[two]] += rows.a2_dp[two]
        state = self._row_state(base, S_row, psum_row)
        if not base.n_tasks:
            reductions = (
                np.full(n_rows, _NEG_INF),
                np.full(n_rows, _NEG_INF),
                np.zeros(n_rows),
                np.zeros(n_rows),
            )
        elif n_rows * base.n_tasks < _GROUPED_MIN_ELEMS:
            reductions = self._reduce_dense(base, rows, state)
        else:
            reductions = self._reduce_grouped(base, rows, state)

        # -- mover-side values (rows adding the task to this cluster) ----
        mv_ok = rows.mv_slot >= 0
        mv_slot = np.where(mv_ok, rows.mv_slot, 0)
        md = rows.mv_d
        sat_m = state.sat[ix, mv_slot]
        psum_m = psum_row[ix, mv_slot]
        sup_sat = state.cs * rows.mv_p / np.where(psum_m > 0.0, psum_m, 1.0)
        sup_sat = np.where(md > 0.0, np.minimum(sup_sat, md), sup_sat)
        sup = np.where(sat_m, sup_sat, md)
        ratio_m = np.where(
            md > 0.0,
            np.minimum(1.0, sup / np.where(md > 0.0, md, 1.0)),
            1.0,
        )
        bid_m = np.maximum(sup * state.price, self._market.config.bmin)
        live = mv_ok & state.present
        return (state.present, *reductions, mv_ok,
                np.where(live, ratio_m, 0.0), np.where(live, bid_m, 0.0))

    def _reduce_dense(self, base: _ClusterBase, rows: RowColumns, state: _RowState):
        """Dense reductions: one matrix row per candidate row.

        The differential oracle for :meth:`_reduce_grouped` (``max``
        reductions must match bit-for-bit; ``spend`` up to the documented
        fold freedom).  Rows are processed in chunks that bound the dense
        ``rows x tasks`` temporaries to a few million elements; chunking
        along rows leaves every per-row result bit-identical (each row's
        arithmetic and its axis-1 reductions never see the other rows).
        """
        n = base.n_tasks
        n_rows = len(state.present)
        cur_base = base.cur_ratio if base.cur_present else np.zeros(n)
        maxprio_imp = np.empty(n_rows)
        maxprio_wor = np.empty(n_rows)
        maxabs = np.empty(n_rows)
        spend = np.empty(n_rows)
        limit = max(1, _CHUNK_ELEMS // n)
        for start in range(0, n_rows, limit):
            sl = slice(start, start + limit)
            ratio, bids = self._task_matrices(
                base, state.cs[sl], state.sat[sl], state.psum[sl], state.price[sl]
            )
            colmask = np.ones(ratio.shape, dtype=bool)
            mask = rows.mask[sl]
            masked = np.flatnonzero(mask >= 0)
            colmask[masked, mask[masked]] = False
            active = state.present[sl, None] & colmask
            # Comparisons mirror perf_improves exactly: ``new > cur + eps``
            # (NOT ``new - cur > eps`` -- different rounding at the edge).
            imp = active & (ratio > cur_base[None, :] + _EPS)
            wor = active & (ratio < cur_base[None, :] - _EPS)
            delta = ratio - cur_base[None, :]
            maxprio_imp[sl] = np.max(
                np.where(imp, base.prio[None, :], _NEG_INF), axis=1
            )
            maxprio_wor[sl] = np.max(
                np.where(wor, base.prio[None, :], _NEG_INF), axis=1
            )
            maxabs[sl] = np.max(np.where(active, np.abs(delta), 0.0), axis=1)
            spend[sl] = np.sum(np.where(active, bids, 0.0), axis=1)
        return maxprio_imp, maxprio_wor, maxabs, spend

    def _reduce_grouped(self, base: _ClusterBase, rows: RowColumns, state: _RowState):
        """Grouped reductions: the roster evaluated once per row signature.

        A candidate row differs from the cluster's base state only on its
        adjusted core slots, and the per-task arithmetic depends on the
        mover only through the target V-F level, the adjusted slots'
        saturation flags, and the mover's priority: supplies are ``cs *
        prio / psum`` -- the mover's demand enters solely via the
        saturation comparison and the cluster-demand maximum, both
        resolved per row first.  Rows therefore collapse onto a handful
        of ``(level, present, (slot, dprio, saturated)...)`` groups, found
        by one sort of those signature columns (a group's position never
        enters a row's value); the full per-task vectors are evaluated
        once per group, and each row reads its reductions off its group
        with an exact max-minus-one-element correction for the masked
        mover column (top-two maxima plus a tie count).  Per-task values
        are bit-identical to the dense row evaluation; aggregate
        ``spend`` recomposes the same bids in a different summation order
        -- the documented last-ulp freedom of this module's aggregates.
        """
        n = base.n_tasks
        present = state.present
        n_rows = len(present)
        ix = np.arange(n_rows)
        has_a2 = rows.a2_slot >= 0
        sat_a1 = state.sat[ix, rows.a1_slot]
        sat_a2 = has_a2 & state.sat[ix, np.where(has_a2, rows.a2_slot, 0)]

        # -- group rows by reduction signature ---------------------------
        sig = np.column_stack((
            state.level, present, rows.a1_slot, rows.a1_dp, sat_a1,
            rows.a2_slot, rows.a2_dp, sat_a2,
        )).astype(float)
        order = np.lexsort(sig.T[::-1])
        ordered = sig[order]
        first = np.ones(n_rows, dtype=bool)
        first[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
        group_of = np.empty(n_rows, dtype=np.intp)
        group_of[order] = np.cumsum(first) - 1
        reps = order[first]
        g = len(reps)
        gi = np.arange(g)
        g_cs = state.cs[reps]
        g_price = state.price[reps]
        g_psum = np.tile(base.psum, (g, 1))
        g_psum[gi, rows.a1_slot[reps]] += rows.a1_dp[reps]
        g_sat = base.S[None, :] > g_cs[:, None] + _EPS
        g_sat[gi, rows.a1_slot[reps]] = sat_a1[reps]
        two = reps[has_a2[reps]]
        g_two = group_of[two]
        g_psum[g_two, rows.a2_slot[two]] += rows.a2_dp[two]
        g_sat[g_two, rows.a2_slot[two]] = sat_a2[two]

        mask_col = rows.mask
        has_mask = mask_col >= 0
        cur_base = base.cur_ratio if base.cur_present else np.zeros(n)
        max1_imp = np.full(g, _NEG_INF)
        cnt_imp = np.zeros(g)
        max2_imp = np.full(g, _NEG_INF)
        max1_wor = np.full(g, _NEG_INF)
        cnt_wor = np.zeros(g)
        max2_wor = np.full(g, _NEG_INF)
        max1_abs = np.full(g, _NEG_INF)
        cnt_abs = np.zeros(g)
        max2_abs = np.full(g, _NEG_INF)
        g_spend = np.zeros(g)
        vj_imp = np.full(n_rows, _NEG_INF)
        vj_wor = np.full(n_rows, _NEG_INF)
        vj_abs = np.zeros(n_rows)
        vj_bid = np.zeros(n_rows)
        limit = max(1, _CHUNK_ELEMS // n)
        for start in range(0, g, limit):
            stop = min(g, start + limit)
            sl = slice(start, stop)
            ratio, bids = self._task_matrices(
                base, g_cs[sl], g_sat[sl], g_psum[sl], g_price[sl]
            )
            # Comparisons mirror perf_improves exactly: ``new > cur +
            # eps`` (NOT ``new - cur > eps``, different edge rounding).
            imp_vals = np.where(
                ratio > cur_base[None, :] + _EPS, base.prio[None, :], _NEG_INF
            )
            wor_vals = np.where(
                ratio < cur_base[None, :] - _EPS, base.prio[None, :], _NEG_INF
            )
            abs_vals = np.abs(ratio - cur_base[None, :])
            for vals, m1, cnt, m2 in (
                (imp_vals, max1_imp, cnt_imp, max2_imp),
                (wor_vals, max1_wor, cnt_wor, max2_wor),
                (abs_vals, max1_abs, cnt_abs, max2_abs),
            ):
                vm = vals.max(axis=1)
                at_max = vals == vm[:, None]
                m1[sl] = vm
                cnt[sl] = at_max.sum(axis=1)
                m2[sl] = np.where(at_max, _NEG_INF, vals).max(axis=1)
            g_spend[sl] = bids.sum(axis=1)
            rsel = has_mask & (group_of >= start) & (group_of < stop)
            if rsel.any():
                ridx = np.nonzero(rsel)[0]
                gix = group_of[ridx] - start
                cj = mask_col[ridx]
                vj_imp[ridx] = imp_vals[gix, cj]
                vj_wor[ridx] = wor_vals[gix, cj]
                vj_abs[ridx] = abs_vals[gix, cj]
                vj_bid[ridx] = bids[gix, cj]

        # Per-row reductions: group value, minus the mover's column for
        # masked rows.  ``max`` minus one element is exact: the group max
        # stands unless the excluded entry was its only attaining
        # element, in which case the runner-up max applies.
        def _excluded(m1g, cntg, m2g, vj):
            m1r = m1g[group_of]
            excl = np.where(
                vj < m1r, m1r, np.where(cntg[group_of] > 1, m1r, m2g[group_of])
            )
            return np.where(has_mask, excl, m1r)

        maxprio_imp = np.where(
            present, _excluded(max1_imp, cnt_imp, max2_imp, vj_imp), _NEG_INF
        )
        maxprio_wor = np.where(
            present, _excluded(max1_wor, cnt_wor, max2_wor, vj_wor), _NEG_INF
        )
        maxabs = np.where(
            present,
            np.maximum(_excluded(max1_abs, cnt_abs, max2_abs, vj_abs), 0.0),
            0.0,
        )
        gs = g_spend[group_of]
        spend = np.where(present, np.where(has_mask, gs - vj_bid, gs), 0.0)
        return maxprio_imp, maxprio_wor, maxabs, spend


__all__ = ["BatchMappingEvaluator", "CandidateBlock", "Verdicts"]
