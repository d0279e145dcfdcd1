"""Batched steady-state mapping evaluation (vectorized LBT search).

The LBT module's proposal sweep evaluates dozens of candidate mappings
against one frozen market state; :class:`SteadyStateEstimator._evaluate`
walks every task of the affected clusters per candidate in Python.  This
module evaluates *all* candidates of one sweep as matrix rows: for each
cluster, every candidate that touches it becomes one row of a
``[rows, tasks]`` ratio/bid matrix computed in a handful of array passes.

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

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

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
#: hashing, top-two reductions).  The gate is a pure function of the
#: population, so a given market state always takes the same path on
#: either engine; ``max`` reductions are bit-identical between the two
#: paths anyway, only aggregate ``spend`` has the documented last-ulp
#: fold freedom.
_GROUPED_MIN_ELEMS = 65_536


@dataclass
class CandidateVerdict:
    """Decision quantities for one candidate move."""

    perf_improves: bool
    perf_not_worse: bool
    mover_ratio_current: float
    mover_ratio_candidate: float
    spend_current: float
    spend_candidate: float


class _ClusterBase:
    """Per-cluster arrays for proposal sweeps.

    Split into a *structural* part -- roster, slot maps, priorities and
    their per-core sums, all functions of ``market._tasks_by_core`` alone
    and therefore cacheable against ``market.structure_stamp`` -- and a
    *per-proposal* part (:meth:`refresh`): demands, in-order core demand
    sums and the current-mapping row, which change every market round.
    """

    __slots__ = (
        "cluster_id", "ladder", "max_index", "tids", "tid_index", "prio",
        "core_slot", "slot_of_core", "d", "S", "psum", "n_tasks", "n_cores",
        "cur_present", "cur_level", "cur_ratio", "cur_bids", "cur_spend",
        "stamp", "seq",
    )

    def __init__(self, market, cluster_id: str):
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
        self.tid_index = {tid: i for i, tid in enumerate(tids)}
        self.n_tasks = len(tids)
        self.n_cores = len(cluster.core_ids)
        self.prio = np.asarray(
            [float(market.tasks[tid].priority) for tid in tids]
        )
        self.core_slot = np.asarray(core_slot, dtype=np.intp)
        if self.n_tasks:
            self.psum = np.bincount(
                self.core_slot, weights=self.prio, minlength=self.n_cores
            )
        else:
            self.psum = np.zeros(self.n_cores)
        self.stamp = market.structure_stamp
        self.seq = -1  # no proposal data yet; refresh() must run first

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
    """Evaluates one proposal sweep's candidates as array batches.

    Held persistently by the LBT module across proposals of one run: the
    structural cluster arrays (roster, slot maps, priority sums) are
    cached against ``market.structure_stamp`` and survive between
    proposals, while demand-dependent state is re-derived lazily per
    cluster after each :meth:`begin_proposal`.  The market must stay
    frozen for the duration of one sweep, like the estimator's own batch
    caches.
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
        current-mapping row refresh on first touch.  Placement deltas
        (add/remove/move/restore) invalidate the structural arrays too,
        via the market's structure stamp.
        """
        self._seq += 1

    def _base(self, cluster_id: str) -> _ClusterBase:
        base = self._bases.get(cluster_id)
        if base is None or base.stamp != self._market.structure_stamp:
            base = _ClusterBase(self._market, cluster_id)
            self._bases[cluster_id] = base
        if base.seq != self._seq:
            base.refresh(self._est)
            self._current(base)
            base.seq = self._seq
        return base

    def _current(self, base: _ClusterBase) -> None:
        """Current-mapping row (no adjustments) for one cluster."""
        ratio, bids, present, level, _ = self._eval_rows(
            base,
            S_rows=base.S[None, :],
            psum_rows=base.psum[None, :],
        )
        base.cur_present = bool(present[0])
        base.cur_level = int(level[0])
        if base.cur_present and base.n_tasks:
            base.cur_ratio = ratio[0]
            base.cur_bids = bids[0]
            base.cur_spend = float(np.sum(bids[0]))
        else:
            base.cur_ratio = np.zeros(base.n_tasks)
            base.cur_bids = np.zeros(base.n_tasks)
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
    def _eval_rows(self, base: _ClusterBase, S_rows, psum_rows):
        """Ratio/bid matrices for adjusted core-sum rows of one cluster.

        Mirrors ``SteadyStateEstimator._evaluate`` per-cluster logic: the
        cluster demand is the max core sum, the target level the first
        ladder entry covering it, the price the estimator's (memoized)
        per-(cluster, level) estimate; unsaturated cores supply demand,
        saturated cores split priority-proportionally.
        """
        est = self._est
        bmin = self._market.config.bmin
        cd = S_rows.max(axis=1) if base.n_cores else np.zeros(len(S_rows))
        present = cd > 0.0
        level = np.minimum(
            np.searchsorted(base.ladder, cd - _EPS, side="left"),
            base.max_index,
        )
        price = np.asarray(
            [
                est.estimate_price(base.cluster_id, int(lv)) if ok else 0.0
                for lv, ok in zip(level.tolist(), present.tolist())
            ]
        )
        cs = base.ladder[level]
        sat = S_rows > cs[:, None] + _EPS
        if not base.n_tasks:
            shape = (len(S_rows), 0)
            return np.zeros(shape), np.zeros(shape), present, level, (cs, sat, price)
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
        bids = np.maximum(supply * price[:, None], bmin)
        return ratio, bids, present, level, (cs, sat, price)

    # -- candidate evaluation -----------------------------------------------
    def evaluate(
        self, candidates: List[Tuple[str, str, str]]
    ) -> List[CandidateVerdict]:
        """Verdicts for ``(task_id, source_core_id, target_core_id)`` triples."""
        market = self._market
        est = self._est
        # Group the per-cluster rows this sweep needs.  Each candidate
        # contributes a removal row on its source cluster and an addition
        # row on its target cluster (one combined row when they match).
        plans = []
        rows: Dict[str, List[dict]] = {}

        def add_row(cluster_id: str, spec: dict) -> int:
            bucket = rows.setdefault(cluster_id, [])
            bucket.append(spec)
            return len(bucket) - 1

        # Per-sweep local caches: candidate loops touch the same handful
        # of clusters thousands of times, so hoist the stamp-checked
        # lookups out of the hot loop.
        cluster_of_core: Dict[str, str] = {}
        bases: Dict[str, _ClusterBase] = {}

        def _cluster_of(core_id: str) -> str:
            cid = cluster_of_core.get(core_id)
            if cid is None:
                cid = cluster_of_core[core_id] = market.cores[core_id].cluster_id
            return cid

        def _base_of(cluster_id: str) -> _ClusterBase:
            base = bases.get(cluster_id)
            if base is None:
                base = bases[cluster_id] = self._base(cluster_id)
            return base

        # Plain-list views of the per-cluster roster arrays: the candidate
        # loop reads a handful of scalars per candidate, and python-list
        # indexing beats numpy scalar indexing by an order of magnitude.
        # ``tolist`` round-trips float64 exactly.
        base_lists: Dict[str, tuple] = {}

        def _lists_of(cluster_id: str) -> tuple:
            bl = base_lists.get(cluster_id)
            if bl is None:
                base = _base_of(cluster_id)
                bl = base_lists[cluster_id] = (
                    base,
                    base.d.tolist(),
                    base.prio.tolist(),
                    base.cur_ratio.tolist() if base.cur_present else None,
                )
            return bl

        # Cross-cluster mover demands, one vectorized gather per target
        # cluster (the mover is not resident there, so its demand is not
        # in the base's roster array).  Scalar fallback preserves exact
        # semantics when the vector path declines.
        cross: Dict[str, List[str]] = {}
        for task_id, source_core, target_core in candidates:
            src_cluster = _cluster_of(source_core)
            dst_cluster = _cluster_of(target_core)
            if src_cluster != dst_cluster:
                cross.setdefault(dst_cluster, []).append(task_id)
        d_cross: Dict[Tuple[str, str], float] = {}
        for dst_cluster, tids in cross.items():
            arr = est.demand_array(tids, dst_cluster)
            if arr is None:
                for tid in tids:
                    d_cross[(tid, dst_cluster)] = est._demand(tid, dst_cluster)
            else:
                for tid, val in zip(tids, arr.tolist()):
                    d_cross[(tid, dst_cluster)] = val

        for task_id, source_core, target_core in candidates:
            src_cluster = _cluster_of(source_core)
            dst_cluster = _cluster_of(target_core)
            src_base, d_list, prio_list, cur_list = _lists_of(src_cluster)
            dst_base = _base_of(dst_cluster)
            tidx = src_base.tid_index[task_id]
            prio = prio_list[tidx]
            # Resident demand comes straight off the source base's roster
            # array (same values ``est._demand`` would return).
            d_src = d_list[tidx]
            mover_cur = cur_list[tidx] if cur_list is not None else 0.0
            src_slot = src_base.slot_of_core[source_core]
            dst_slot = dst_base.slot_of_core[target_core]
            if src_cluster == dst_cluster:
                row = add_row(
                    src_cluster,
                    {
                        "adjust": [(src_slot, -d_src, -prio), (dst_slot, d_src, prio)],
                        "mask": tidx,
                        "mover": (dst_slot, d_src, prio),
                    },
                )
                plans.append(
                    (src_cluster, row, src_cluster, row, prio, mover_cur)
                )
            else:
                d_dst = d_cross[(task_id, dst_cluster)]
                src_row = add_row(
                    src_cluster,
                    {
                        "adjust": [(src_slot, -d_src, -prio)],
                        "mask": tidx,
                        "mover": None,
                    },
                )
                dst_row = add_row(
                    dst_cluster,
                    {
                        "adjust": [(dst_slot, d_dst, prio)],
                        "mask": None,
                        "mover": (dst_slot, d_dst, prio),
                    },
                )
                plans.append(
                    (src_cluster, src_row, dst_cluster, dst_row, prio, mover_cur)
                )

        results = {
            cluster_id: self._eval_cluster_rows(cluster_id, specs)
            for cluster_id, specs in rows.items()
        }
        # Positional views of each cluster's result lists: the verdict
        # loop reads eight fields per candidate, and repeated string-key
        # dict lookups dominate otherwise.
        res_t = {
            cid: (
                r["present"],
                r["maxprio_imp"],
                r["maxprio_wor"],
                r["maxabs"],
                r["spend"],
                r["mv_ok"],
                r["mv_ratio"],
                r["mv_bid"],
            )
            for cid, r in results.items()
        }

        verdicts: List[CandidateVerdict] = []
        for src_cluster, src_row, dst_cluster, dst_row, prio, mover_cur in plans:
            src_base = bases[src_cluster]
            dst_base = bases[dst_cluster]
            s_pres, s_imp, s_wor, s_abs, s_spend = res_t[src_cluster][:5]
            (
                d_pres,
                d_imp,
                d_wor,
                d_abs,
                d_spend,
                d_mvok,
                d_mvr,
                d_mvb,
            ) = res_t[dst_cluster]
            same = src_cluster == dst_cluster

            # Mover bookkeeping: present in the current mapping iff its
            # source cluster contributes ratios; present in the candidate
            # iff its destination row does.
            mv_present = d_pres[dst_row] and d_mvok[dst_row]
            mover_cand = d_mvr[dst_row] if mv_present else 0.0

            max_imp = max(
                s_imp[src_row],
                _NEG_INF if same else d_imp[dst_row],
            )
            max_wor = max(
                s_wor[src_row],
                _NEG_INF if same else d_wor[dst_row],
            )
            max_abs = max(
                s_abs[src_row],
                0.0 if same else d_abs[dst_row],
            )
            if mv_present:
                if mover_cand > mover_cur + _EPS:
                    max_imp = max(max_imp, prio)
                if mover_cand < mover_cur - _EPS:
                    max_wor = max(max_wor, prio)
                max_abs = max(max_abs, abs(mover_cand - mover_cur))

            improves = max_imp > _NEG_INF and max_imp >= max_wor
            # perf_equal's keyset test, at the union level: a cluster whose
            # presence flag flips only breaks equality if it contributes
            # tasks besides the mover (moving onto an empty cluster keeps
            # the task union identical even though the cluster wakes up).
            keysets_equal = (
                (
                    src_base.n_tasks <= 1
                    or s_pres[src_row] == src_base.cur_present
                )
                and (
                    same
                    or dst_base.n_tasks == 0
                    or d_pres[dst_row] == dst_base.cur_present
                )
                and mv_present == src_base.cur_present
            )
            equal = keysets_equal and max_abs <= _EPS
            spend_cand = (
                s_spend[src_row]
                + (0.0 if same else d_spend[dst_row])
                + (d_mvb[dst_row] if mv_present else 0.0)
            )
            spend_cur = src_base.cur_spend + (
                0.0 if same else dst_base.cur_spend
            )
            verdicts.append(
                CandidateVerdict(
                    perf_improves=improves,
                    perf_not_worse=equal or improves,
                    mover_ratio_current=mover_cur,
                    mover_ratio_candidate=mover_cand,
                    spend_current=spend_cur,
                    spend_candidate=spend_cand,
                )
            )
        return verdicts

    def _eval_cluster_rows(self, cluster_id: str, specs: List[dict]) -> dict:
        """Evaluate all of one cluster's rows, deduplicated by signature.

        A candidate row differs from the cluster's base state only on its
        adjusted core slots, and the per-task arithmetic depends on the
        mover only through the target V-F level, the adjusted slots'
        saturation flags, and the mover's priority: supplies are ``cs *
        prio / psum`` -- the mover's demand enters solely via the
        saturation comparison and the cluster-demand maximum, both
        resolved per row first.  Rows therefore collapse onto a handful
        of ``(level, present, (slot, dprio, saturated)...)`` groups; the
        full per-task vectors are evaluated once per group, and each row
        reads its reductions off its group with an exact
        max-minus-one-element correction for the masked mover column
        (top-two maxima plus a tie count).  Per-task values are
        bit-identical to the dense row evaluation; aggregate ``spend``
        recomposes the same bids in a different summation order -- the
        documented last-ulp freedom of this module's aggregates.
        """
        base = self._bases[cluster_id]
        if len(specs) * max(base.n_tasks, 1) < _GROUPED_MIN_ELEMS:
            return self._eval_cluster_rows_dense(cluster_id, specs)
        est = self._est
        market = self._market
        n = base.n_tasks
        n_rows = len(specs)
        n_cores = base.n_cores
        bmin = market.config.bmin

        # -- per-row exact quantities: adjusted sums, level, price -------
        S_row = np.tile(base.S, (n_rows, 1))
        psum_row = np.tile(base.psum, (n_rows, 1))
        adj_rows: List[int] = []
        adj_slots: List[int] = []
        adj_dd: List[float] = []
        adj_dp: List[float] = []
        for r, spec in enumerate(specs):
            for slot, dd, dp in spec["adjust"]:
                adj_rows.append(r)
                adj_slots.append(slot)
                adj_dd.append(dd)
                adj_dp.append(dp)
        if adj_rows:
            # Each (row, slot) pair appears at most once, so the
            # unbuffered adds reproduce the scalar ``S[slot] + dd``.
            ar = np.asarray(adj_rows, dtype=np.intp)
            asl = np.asarray(adj_slots, dtype=np.intp)
            np.add.at(S_row, (ar, asl), np.asarray(adj_dd))
            np.add.at(psum_row, (ar, asl), np.asarray(adj_dp))
        cd = S_row.max(axis=1) if n_cores else np.zeros(n_rows)
        present = cd > 0.0
        level = np.minimum(
            np.searchsorted(base.ladder, cd - _EPS, side="left"),
            base.max_index,
        )
        cs = base.ladder[level] if n_cores else np.zeros(n_rows)
        sat_row = S_row > cs[:, None] + _EPS
        price = np.empty(n_rows)
        pr_memo: Dict[int, float] = {}
        lv_list = level.tolist()
        ok_list = present.tolist()
        for r, (lv, ok) in enumerate(zip(lv_list, ok_list)):
            if not ok:
                price[r] = 0.0
                continue
            p = pr_memo.get(lv)
            if p is None:
                p = est.estimate_price(cluster_id, int(lv))
                pr_memo[lv] = p
            price[r] = p

        # -- group rows by reduction signature ---------------------------
        groups: Dict[tuple, int] = {}
        group_sigs: List[tuple] = []
        group_of = np.empty(n_rows, dtype=np.intp)
        for r, spec in enumerate(specs):
            adj = tuple(
                (slot, dp, bool(sat_row[r, slot]))
                for slot, _dd, dp in spec["adjust"]
            )
            sig = (lv_list[r], ok_list[r], adj)
            gi = groups.get(sig)
            if gi is None:
                gi = groups[sig] = len(group_sigs)
                group_sigs.append(sig)
            group_of[r] = gi
        g = len(group_sigs)

        mask_col = np.asarray(
            [
                spec["mask"] if spec["mask"] is not None else -1
                for spec in specs
            ],
            dtype=np.intp,
        )
        has_mask = mask_col >= 0

        if n:
            g_sat = np.empty((g, n_cores), dtype=bool)
            g_psum = np.tile(base.psum, (g, 1))
            g_cs = np.empty(g)
            g_price = np.empty(g)
            for gi, (lv, ok, adj) in enumerate(group_sigs):
                csv = float(base.ladder[lv]) if n_cores else 0.0
                g_cs[gi] = csv
                g_price[gi] = pr_memo.get(lv, 0.0) if ok else 0.0
                g_sat[gi] = base.S > csv + _EPS
                for slot, dp, sat in adj:
                    g_psum[gi, slot] += dp
                    g_sat[gi, slot] = sat

            d = base.d[None, :]
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
            limit = max(1, _CHUNK_ELEMS // max(1, n))
            for start in range(0, g, limit):
                stop = min(g, start + limit)
                sl = slice(start, stop)
                tsat = g_sat[sl][:, base.core_slot]
                psum_t = g_psum[sl][:, base.core_slot]
                satsup = (
                    g_cs[sl, None]
                    * base.prio[None, :]
                    / np.where(psum_t > 0.0, psum_t, 1.0)
                )
                satsup = np.where(d > 0.0, np.minimum(satsup, d), satsup)
                supply = np.where(tsat, satsup, d)
                ratio = np.where(
                    d > 0.0,
                    np.minimum(1.0, supply / np.where(d > 0.0, d, 1.0)),
                    1.0,
                )
                bids = np.maximum(supply * g_price[sl, None], bmin)
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

            # Per-row reductions: group value, minus the mover's column
            # for masked rows.  ``max`` minus one element is exact: the
            # group max stands unless the excluded entry was its only
            # attaining element, in which case the runner-up max applies.
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
                np.maximum(
                    _excluded(max1_abs, cnt_abs, max2_abs, vj_abs), 0.0
                ),
                0.0,
            )
            gs = g_spend[group_of]
            spend = np.where(
                present, np.where(has_mask, gs - vj_bid, gs), 0.0
            )
        else:
            maxprio_imp = np.full(n_rows, _NEG_INF)
            maxprio_wor = np.full(n_rows, _NEG_INF)
            maxabs = np.zeros(n_rows)
            spend = np.zeros(n_rows)

        # -- mover-side values (rows adding the task to this cluster) ----
        mv_ok = [spec["mover"] is not None for spec in specs]
        if any(mv_ok):
            has_mover = np.asarray(mv_ok)
            mv_slot = np.asarray(
                [spec["mover"][0] if spec["mover"] is not None else 0 for spec in specs],
                dtype=np.intp,
            )
            md = np.asarray(
                [spec["mover"][1] if spec["mover"] is not None else 0.0 for spec in specs]
            )
            mp = np.asarray(
                [spec["mover"][2] if spec["mover"] is not None else 0.0 for spec in specs]
            )
            rows_ix = np.arange(n_rows)
            sat_m = sat_row[rows_ix, mv_slot]
            psum_m = psum_row[rows_ix, mv_slot]
            sup_sat = cs * mp / np.where(psum_m > 0.0, psum_m, 1.0)
            sup_sat = np.where(md > 0.0, np.minimum(sup_sat, md), sup_sat)
            sup = np.where(sat_m, sup_sat, md)
            ratio_m = np.where(
                md > 0.0,
                np.minimum(1.0, sup / np.where(md > 0.0, md, 1.0)),
                1.0,
            )
            bid_m = np.maximum(sup * price, bmin)
            live = has_mover & present
            mv_ratio = np.where(live, ratio_m, 0.0).tolist()
            mv_bid = np.where(live, bid_m, 0.0).tolist()
        else:
            mv_ratio = [0.0] * n_rows
            mv_bid = [0.0] * n_rows

        return {
            "present": present.tolist(),
            "maxprio_imp": maxprio_imp.tolist(),
            "maxprio_wor": maxprio_wor.tolist(),
            "maxabs": maxabs.tolist(),
            "spend": spend.tolist(),
            "mv_ok": mv_ok,
            "mv_ratio": mv_ratio,
            "mv_bid": mv_bid,
        }

    def _eval_cluster_rows_dense(self, cluster_id: str, specs: List[dict]) -> dict:
        """Dense reference evaluation: one matrix row per candidate.

        Kept as the differential oracle for the grouped evaluator above
        (``max`` reductions must match bit-for-bit; ``spend`` up to the
        documented fold freedom).  Rows are processed in chunks that
        bound the dense ``rows x tasks`` temporaries to a few million
        elements; chunking along rows leaves every per-row result
        bit-identical (each row's arithmetic and its axis-1 reductions
        never see the other rows).
        """
        base = self._bases[cluster_id]
        n = base.n_tasks
        limit = max(1, _CHUNK_ELEMS // max(1, n))
        if len(specs) > limit:
            merged: Dict[str, list] = {}
            for start in range(0, len(specs), limit):
                part = self._eval_cluster_rows_dense(
                    cluster_id, specs[start:start + limit]
                )
                if not merged:
                    merged = {key: list(val) for key, val in part.items()}
                else:
                    for key, val in part.items():
                        merged[key].extend(val)
            return merged
        n_rows = len(specs)
        S_list = base.S.tolist()
        psum_list = base.psum.tolist()
        S_rows_l = []
        psum_rows_l = []
        for spec in specs:
            s = list(S_list)
            p = list(psum_list)
            for slot, dd, dp in spec["adjust"]:
                s[slot] = s[slot] + dd
                p[slot] = p[slot] + dp
            S_rows_l.append(s)
            psum_rows_l.append(p)
        S_rows = np.asarray(S_rows_l)
        psum_rows = np.asarray(psum_rows_l)
        ratio, bids, present, _level, (cs, sat, price) = self._eval_rows(
            base, S_rows, psum_rows
        )

        n = base.n_tasks
        if n:
            colmask = np.ones((n_rows, n), dtype=bool)
            for r, spec in enumerate(specs):
                if spec["mask"] is not None:
                    colmask[r, spec["mask"]] = False
            active = present[:, None] & colmask
            cur_base = base.cur_ratio if base.cur_present else np.zeros(n)
            # Comparisons mirror perf_improves exactly: ``new > cur + eps``
            # (NOT ``new - cur > eps`` -- different rounding at the edge).
            imp = active & (ratio > cur_base[None, :] + _EPS)
            wor = active & (ratio < cur_base[None, :] - _EPS)
            delta = ratio - cur_base[None, :]
            maxprio_imp = np.max(
                np.where(imp, base.prio[None, :], _NEG_INF), axis=1
            )
            maxprio_wor = np.max(
                np.where(wor, base.prio[None, :], _NEG_INF), axis=1
            )
            maxabs = np.max(np.where(active, np.abs(delta), 0.0), axis=1)
            spend = np.sum(np.where(active, bids, 0.0), axis=1)
        else:
            maxprio_imp = np.full(n_rows, _NEG_INF)
            maxprio_wor = np.full(n_rows, _NEG_INF)
            maxabs = np.zeros(n_rows)
            spend = np.zeros(n_rows)

        # Mover-side values (rows that add the task to this cluster).
        mv_ok = [spec["mover"] is not None for spec in specs]
        mv_ratio = [0.0] * n_rows
        mv_bid = [0.0] * n_rows
        bmin = self._market.config.bmin
        for r, spec in enumerate(specs):
            mover = spec["mover"]
            if mover is None or not present[r]:
                continue
            slot, md, mp = mover
            cs_r = float(cs[r])
            sat_m = bool(sat[r, slot])
            if sat_m:
                psum_m = float(psum_rows[r, slot])
                sup = cs_r * mp / (psum_m if psum_m > 0.0 else 1.0)
                if md > 0.0:
                    sup = min(sup, md)
            else:
                sup = md
            mv_ratio[r] = min(1.0, sup / md) if md > 0.0 else 1.0
            mv_bid[r] = max(sup * float(price[r]), bmin)

        return {
            "present": present.tolist(),
            "maxprio_imp": maxprio_imp.tolist(),
            "maxprio_wor": maxprio_wor.tolist(),
            "maxabs": maxabs.tolist(),
            "spend": spend.tolist(),
            "mv_ok": mv_ok,
            "mv_ratio": mv_ratio,
            "mv_bid": mv_bid,
        }


__all__ = ["BatchMappingEvaluator", "CandidateVerdict"]
