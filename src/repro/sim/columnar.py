"""Columnar (struct-of-arrays) tick engine.

:class:`ColumnarSimulation` re-implements the engine's per-tick hot loop
-- dispatch, load tracking, heart-rate monitoring, metrics capture -- as
vectorized passes over struct-of-arrays numpy buffers; the ``Task``
object graph becomes a lazily-materialised *view* of those buffers,
refreshed at observation boundaries.  ``Simulation(...)`` builds it
for populations of :data:`~repro.sim.engine.VEC_MIN_TASKS` tasks or more
and the object loop below; construct the class directly to run it at
any size.

Design invariants (enforced by ``tests/sim/test_columnar_equivalence.py``
and ``tests/sim/test_sync_barrier.py``):

* **Bit-identical telemetry.**  Every vectorized expression maps 1:1 onto
  the scalar expression it replaces -- same operand order, same
  association, in-order ``np.bincount`` folds for every scalar ``+=``
  accumulation -- so per-tick metrics, checkpoints and golden digests are
  byte-identical to the object engine on any task count.
* **Columns are authoritative; objects are a view.**  The per-task hot
  attributes (``total_beats``, ``total_work_pu_s``, ``last_supply_pus``,
  ``last_consumed_pus``, ``last_demand_pus``) and the load-tracker dict
  are materialised from the arrays by the :meth:`ColumnarSimulation.sync`
  barrier, invoked by every observation hook site: governor decision
  paths that fall back to attribute reads, telemetry/metrics fallbacks,
  fault-injection window activation, checkpoint snapshots, audit passes
  and the end of :meth:`Simulation.run`.  Per-column dirty epochs (tick
  stamps) make the barrier a no-op when nothing changed.  The floats a
  barrier materialises are exactly the floats the object loop's per-tick
  writes produce, so observers cannot tell the loops apart.  As a debug
  check, setting :attr:`ColumnarSimulation.poison` writes a sentinel to
  the view attributes between barriers, so an unsynchronised read raises
  :class:`PoisonedStateError` instead of returning a stale float.
  Out-of-band *mutators* of hot attributes must still call
  :meth:`Simulation.invalidate_task_cache` afterwards (which itself
  syncs first), exactly as before.
* **Epoch caching.**  Per-task constant arrays (start/end times, QoS
  bounds, per-beat costs, phase parameters) are rebuilt only when the
  placement mapping changes (:attr:`Placement.version`), the task set is
  invalidated, or ``dt`` changes.  Rebuilds re-seed the columns from the
  object view, so a barrier always precedes them.

Tasks whose ``hrm`` has been instrumented (e.g. the fault injector's
heartbeat-withholding wrapper) keep their scalar monitor and are advanced
through the ordinary per-object calls; everything else is adopted into a
shared ring buffer (:class:`_HRMRings`) with :class:`ColumnarHRM` views
preserving the ``HeartRateMonitor`` API.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..tasks.heartbeats import HeartRateMonitor
from ..tasks.phases import ConstantPhase, SinusoidalPhases, SquareWavePhases
from ..tasks.task import Task
from .engine import Simulation
from .metrics import MetricsCollector, TaskSample, TickColumnBuffer, TickSample


class PoisonedStateError(RuntimeError):
    """An object attribute was read between sync barriers.

    Raised when :attr:`ColumnarSimulation.poison` is set and code consumes
    a ``Task`` hot attribute without an intervening
    :meth:`ColumnarSimulation.sync`; the fix is a ``sim.sync()`` call at
    the offending observation site, never a re-pin of expected values.
    """


class _Poison:
    """Debug sentinel stored in view attributes between barriers.

    Any numeric use (arithmetic, comparison, conversion, formatting)
    raises :class:`PoisonedStateError` naming the poisoned attribute;
    plain ``repr`` stays usable so debuggers can display the object.
    """

    __slots__ = ("_attr",)

    def __init__(self, attr: str) -> None:
        self._attr = attr

    def __repr__(self) -> str:  # pragma: no cover - debugger aid
        return f"<poisoned {self._attr}>"

    def _trap(self, *_args, **_kwargs):
        raise PoisonedStateError(
            f"unsynchronised read of Task.{self._attr}: the columnar engine "
            "is poisoned and no sync() barrier ran since the last "
            "tick; call sim.sync() at the observation site"
        )

    __float__ = __int__ = __bool__ = __index__ = _trap
    __add__ = __radd__ = __sub__ = __rsub__ = _trap
    __mul__ = __rmul__ = __truediv__ = __rtruediv__ = _trap
    __floordiv__ = __rfloordiv__ = __mod__ = __rmod__ = __pow__ = _trap
    __neg__ = __pos__ = __abs__ = __round__ = _trap
    __lt__ = __le__ = __gt__ = __ge__ = __eq__ = __ne__ = _trap
    __hash__ = None  # type: ignore[assignment]
    __format__ = __str__ = _trap  # type: ignore[assignment]


#: One sentinel per hot attribute, shared across all tasks (the trap
#: message is per-attribute; no per-task state is needed).
_POISONS = tuple(
    _Poison(attr)
    for attr in (
        "total_beats",
        "total_work_pu_s",
        "last_supply_pus",
        "last_consumed_pus",
        "last_demand_pus",
    )
)


class _HRMRings:
    """Ring buffers holding the adopted tasks' heart-rate samples.

    One row per store row (rows that keep a scalar monitor simply leave
    their ring row unused).  Semantics mirror ``HeartRateMonitor``'s
    deque exactly: append the cumulative beat count, then pop from the
    left while the *second* sample is at/before the window horizon.
    """

    def __init__(
        self,
        windows: Sequence[float],
        samples: Sequence[Sequence[Tuple[float, float]]],
        dt: float,
    ):
        n = len(windows)
        cap = 4
        for w, s in zip(windows, samples):
            cap = max(cap, int(math.ceil(w / dt)) + 4, len(s) + 2)
        self.n = n
        self.cap = cap
        self.window = np.asarray(windows, dtype=float)
        self.t = np.zeros((n, cap))
        self.b = np.zeros((n, cap))
        self.head = np.zeros(n, dtype=np.intp)
        self.count = np.zeros(n, dtype=np.intp)
        self._rows = np.arange(n, dtype=np.intp)
        #: Mutation counter; heart-rate caches key off it.
        self.stamp = 0
        for i, s in enumerate(samples):
            k = len(s)
            if k:
                self.t[i, :k] = [pair[0] for pair in s]
                self.b[i, :k] = [pair[1] for pair in s]
            self.count[i] = k
        # Uniform mode: when every row shares one window and one sample
        # cadence (the steady state -- every task records every tick),
        # the time ring, head and count are shared scalars and appends
        # collapse to one column write.  Any per-row mutation demotes to
        # the general per-row machinery, copying the shared state out.
        self._detect_uniform()

    @classmethod
    def adopt(
        cls,
        windows: Sequence[float],
        samples: Sequence[Sequence[Tuple[float, float]]],
        col_src: Sequence[Tuple[int, "_HRMRings", int]],
        dt: float,
    ) -> "_HRMRings":
        """Build rings re-adopting rows straight out of existing rings.

        Equivalent to materialising every ``col_src`` row via
        ``samples_of`` and running ``__init__``, but the sample transfer
        is one array gather per source ring instead of a per-task deque
        round-trip.  ``samples`` carries the scalar-monitor rows only;
        rows named in ``col_src`` keep their placeholder ``windows``
        entry (overwritten from the source ring) and must have an empty
        ``samples`` entry.
        """
        self = cls.__new__(cls)
        n = len(windows)
        groups: Dict[int, list] = {}
        for row, ring, src in col_src:
            g = groups.get(id(ring))
            if g is None:
                g = groups[id(ring)] = [ring, [], []]
            g[1].append(row)
            g[2].append(src)
        window = np.asarray(windows, dtype=float)
        grp = []
        for ring, rows, srcs in groups.values():
            nr = np.asarray(rows, dtype=np.intp)
            orr = np.asarray(srcs, dtype=np.intp)
            grp.append((ring, nr, orr))
            window[nr] = ring.window[orr]
        # ``ceil`` is monotone, so the per-row max of ``ceil(w/dt)``
        # equals ``ceil(max(w)/dt)``.
        cap = 4
        if n:
            cap = max(cap, int(math.ceil(float(window.max()) / dt)) + 4)
        for s in samples:
            if s:
                cap = max(cap, len(s) + 2)
        for ring, nr, orr in grp:
            if ring.uniform:
                cmax = int(ring.ucount)
            else:
                cmax = int(ring.count[orr].max())
            cap = max(cap, cmax + 2)
        self.n = n
        self.cap = cap
        self.window = window
        self.t = np.zeros((n, cap))
        self.b = np.zeros((n, cap))
        self.head = np.zeros(n, dtype=np.intp)
        self.count = np.zeros(n, dtype=np.intp)
        self._rows = np.arange(n, dtype=np.intp)
        self.stamp = 0
        for i, s in enumerate(samples):
            k = len(s)
            if k:
                self.t[i, :k] = [pair[0] for pair in s]
                self.b[i, :k] = [pair[1] for pair in s]
                self.count[i] = k
        for ring, nr, orr in grp:
            if ring.uniform:
                k = int(ring.ucount)
                if k:
                    idx = (ring.uhead + np.arange(k)) % ring.cap
                    self.t[nr[:, None], np.arange(k)[None, :]] = ring.ut[idx][None, :]
                    self.b[nr[:, None], np.arange(k)[None, :]] = ring.b[
                        orr[:, None], idx[None, :]
                    ]
                self.count[nr] = k
            else:
                cnts = ring.count[orr]
                kmax = int(cnts.max())
                if kmax:
                    seq = np.arange(kmax)
                    idx = (ring.head[orr][:, None] + seq[None, :]) % ring.cap
                    mask = seq[None, :] < cnts[:, None]
                    self.t[nr[:, None], seq[None, :]] = np.where(
                        mask, ring.t[orr[:, None], idx], 0.0
                    )
                    self.b[nr[:, None], seq[None, :]] = np.where(
                        mask, ring.b[orr[:, None], idx], 0.0
                    )
                self.count[nr] = cnts
        self._detect_uniform()
        return self

    def _detect_uniform(self) -> None:
        """Enter uniform mode when every row shares window and cadence.

        Callers must have every row normalised to ``head == 0`` (both
        construction paths write samples from slot 0).
        """
        self.uniform = False
        self.ut = None
        self.uhead = 0
        self.ucount = 0
        n = self.n
        cap = self.cap
        if n:
            k0 = int(self.count[0])
            same = bool((self.count == k0).all()) and bool(
                (self.window == self.window[0]).all()
            )
            if same and (k0 == 0 or bool((self.t[:, :k0] == self.t[0, :k0]).all())):
                self.uniform = True
                self.ut = np.zeros(cap)
                if k0:
                    self.ut[:k0] = self.t[0, :k0]
                self.ucount = k0

    def _demote(self) -> None:
        """Materialise the shared uniform state into the per-row arrays."""
        if not self.uniform:
            return
        self.uniform = False
        self.t[:, :] = self.ut[None, :]
        self.head[:] = self.uhead
        self.count[:] = self.ucount

    def append_all(self, t_new: float, beats: "np.ndarray") -> None:
        """Uniform-mode ``record`` for every row at once (one column write)."""
        self.stamp += 1
        if self.ucount + 1 > self.cap:
            self._grow(self.ucount + 2)
        cap = self.cap
        pos = (self.uhead + self.ucount) % cap
        ut = self.ut
        ut[pos] = t_new
        self.b[:, pos] = beats
        self.ucount += 1
        horizon = t_new - float(self.window[0])
        while self.ucount >= 2 and ut[(self.uhead + 1) % cap] <= horizon:
            self.uhead = (self.uhead + 1) % cap
            self.ucount -= 1

    def _grow(self, need: int) -> None:
        cap = max(need, 2 * self.cap)
        t = np.zeros((self.n, cap))
        b = np.zeros((self.n, cap))
        if self.uniform:
            c = self.ucount
            if c:
                idx = (self.uhead + np.arange(c)) % self.cap
                b[:, :c] = self.b[:, idx]
                ut = np.zeros(cap)
                ut[:c] = self.ut[idx]
                self.ut = ut
                t[:, :c] = ut[:c][None, :]
            else:
                self.ut = np.zeros(cap)
            self.uhead = 0
            self.count[:] = c
        else:
            for i in range(self.n):
                c = int(self.count[i])
                if c:
                    idx = (int(self.head[i]) + np.arange(c)) % self.cap
                    t[i, :c] = self.t[i, idx]
                    b[i, :c] = self.b[i, idx]
        self.t = t
        self.b = b
        self.head[:] = 0
        self.cap = cap

    def append_many(self, rows: "np.ndarray", t_new: float, beats: "np.ndarray") -> None:
        """Vectorized ``record(t_new, beats[k])`` over ``rows``.

        The engine only appends monotonically increasing times, so the
        scalar path's non-decreasing check is statically satisfied here.
        """
        if rows.size == 0:
            return
        if self.uniform:
            if rows.size == self.n:
                self.append_all(t_new, beats)
                return
            self._demote()
        self.stamp += 1
        if int(self.count[rows].max()) + 1 > self.cap:
            self._grow(int(self.count[rows].max()) + 2)
        head = self.head
        count = self.count
        pos = (head[rows] + count[rows]) % self.cap
        self.t[rows, pos] = t_new
        self.b[rows, pos] = beats
        count[rows] += 1
        # Trim: same pop-while-second-sample-expired loop as the deque,
        # advanced for every row at once (regular cadence pops <= 1-2).
        h = head[rows].copy()
        c = count[rows].copy()
        horizon = t_new - self.window[rows]
        while True:
            live = c >= 2
            if not live.any():
                break
            second = self.t[rows, (h + 1) % self.cap]
            live &= second <= horizon
            if not live.any():
                break
            h[live] = (h[live] + 1) % self.cap
            c[live] -= 1
        head[rows] = h
        count[rows] = c

    def append_one(self, i: int, t: float, total_beats: float) -> None:
        """Scalar ``HeartRateMonitor.record`` against ring row ``i``."""
        self._demote()
        self.stamp += 1
        if int(self.count[i]) + 1 > self.cap:
            self._grow(int(self.count[i]) + 2)
        h = int(self.head[i])
        c = int(self.count[i])
        if c and t < self.t[i, (h + c - 1) % self.cap]:
            raise ValueError("time must be non-decreasing")
        self.t[i, (h + c) % self.cap] = t
        self.b[i, (h + c) % self.cap] = total_beats
        c += 1
        horizon = t - float(self.window[i])
        while c >= 2 and self.t[i, (h + 1) % self.cap] <= horizon:
            h = (h + 1) % self.cap
            c -= 1
        self.head[i] = h
        self.count[i] = c

    def rate_all(self) -> "np.ndarray":
        """``HeartRateMonitor.heart_rate`` for every row (vectorized)."""
        if self.uniform:
            c = self.ucount
            if c < 2:
                return np.zeros(self.n)
            h = self.uhead
            last = (h + c - 1) % self.cap
            t0 = float(self.ut[h])
            t1 = float(self.ut[last])
            if t1 <= t0:
                return np.zeros(self.n)
            return (self.b[:, last] - self.b[:, h]) / (t1 - t0)
        rows = self._rows
        last = (self.head + self.count - 1) % self.cap
        t0 = self.t[rows, self.head]
        t1 = self.t[rows, last]
        ok = (self.count >= 2) & (t1 > t0)
        b0 = self.b[rows, self.head]
        b1 = self.b[rows, last]
        return np.where(ok, (b1 - b0) / np.where(ok, t1 - t0, 1.0), 0.0)

    def rate_one(self, i: int) -> float:
        c = self.ucount if self.uniform else int(self.count[i])
        if c < 2:
            return 0.0
        h = self.uhead if self.uniform else int(self.head[i])
        last = (h + c - 1) % self.cap
        tbuf = self.ut if self.uniform else self.t[i]
        t0 = tbuf[h]
        t1 = tbuf[last]
        if t1 <= t0:
            return 0.0
        return float((self.b[i, last] - self.b[i, h]) / (t1 - t0))

    def reset_one(self, i: int) -> None:
        self._demote()
        self.stamp += 1
        self.count[i] = 0

    def samples_of(self, i: int) -> deque:
        if self.uniform:
            c = self.ucount
            idx = (self.uhead + np.arange(c)) % self.cap
            return deque(zip(self.ut[idx].tolist(), self.b[i, idx].tolist()))
        c = int(self.count[i])
        idx = (int(self.head[i]) + np.arange(c)) % self.cap
        return deque(zip(self.t[i, idx].tolist(), self.b[i, idx].tolist()))

    def set_samples(self, i: int, pairs) -> None:
        pairs = list(pairs)
        self._demote()
        self.stamp += 1
        if len(pairs) + 2 > self.cap:
            self._grow(len(pairs) + 2)
        self.head[i] = 0
        self.count[i] = len(pairs)
        for k, (tv, bv) in enumerate(pairs):
            self.t[i, k] = tv
            self.b[i, k] = bv


class ColumnarHRM:
    """Drop-in ``HeartRateMonitor`` view over one ring-buffer row.

    Standalone handle: it stays valid (reads and writes its birth ring)
    even after the owning epoch is discarded; a rebuilt epoch simply
    materialises its samples into the new rings and hands the task a
    fresh view.
    """

    def __init__(self, rings: _HRMRings, row: int):
        self._rings = rings
        self._row = row

    @property
    def window_s(self) -> float:
        return float(self._rings.window[self._row])

    def record(self, t: float, total_beats: float) -> None:
        self._rings.append_one(self._row, t, total_beats)

    def heart_rate(self) -> float:
        return self._rings.rate_one(self._row)

    def reset(self) -> None:
        self._rings.reset_one(self._row)

    @property
    def _samples(self) -> deque:
        return self._rings.samples_of(self._row)

    @_samples.setter
    def _samples(self, value) -> None:
        self._rings.set_samples(self._row, value)


class _Epoch:
    """Struct-of-arrays snapshot of the placed task population.

    Valid while ``placement.version`` and ``dt`` are unchanged; the
    mutable state columns are kept in sync with the task attributes by
    the engine's per-tick write-back, so discarding an epoch loses
    nothing.
    """

    __slots__ = (
        "version",
        "dt",
        "n",
        "tasks",
        "rowmap",
        "cores",
        "ncores",
        "core_ix",
        "core_bounds",
        "clusters",
        "cluster_ix",
        "start",
        "end",
        "tgt_hr",
        "cost_base",
        "any_limit",
        "has_limit",
        "limit",
        "lo",
        "hi",
        "beats",
        "work",
        "sup",
        "con",
        "dem",
        "load",
        "has_load",
        "rings",
        "vec_rows",
        "py_rows",
        "py_set",
        "ph_const_rows",
        "ph_const_vals",
        "ph_sin_rows",
        "ph_sin_start",
        "ph_sin_amp",
        "ph_sin_per",
        "ph_sin_off",
        "ph_sqw_rows",
        "ph_sqw_start",
        "ph_sqw_per",
        "ph_sqw_lo",
        "ph_sqw_hi",
        "ph_sqw_duty",
        "ph_sqw_off",
        "ph_py",
        "all_const",
        "const_buf",
        "mult_buf",
        "covers_all",
        "perm",
        "perm_names",
        "perm_identity",
        "perm_lo",
        "perm_hi",
        "alloc_has",
        "alloc_val",
        "weight_val",
        "alloc_all",
        "alloc_none",
        "max_start",
        "min_end",
        "fz_max",
        "core_counts",
        "cost_const",
        "dem_const",
        "all_vec",
        "all_has_load",
        "g_key",
        "g_sup_core",
        "g_grants",
        "g_cons",
        "g_beats_inc",
        "g_work_inc",
        "g_util",
        "g_inst",
        "g_load_c",
    )

    def core_supplies(self) -> "np.ndarray":
        """Per-core supply this tick (uniform within a cluster)."""
        per_cluster = np.fromiter(
            (cl.supply_pus for cl in self.clusters), dtype=float, count=len(self.clusters)
        )
        return per_cluster[self.cluster_ix]

    def multipliers(self, now: float) -> "np.ndarray":
        """Per-row phase multiplier at ``now`` (same expressions as scalar)."""
        if self.all_const:
            return self.const_buf
        m = self.mult_buf
        if self.ph_const_rows is not None:
            m[self.ph_const_rows] = self.ph_const_vals
        if self.ph_sin_rows is not None:
            lt = now - self.ph_sin_start
            lt = np.where(lt > 0.0, lt, 0.0)
            m[self.ph_sin_rows] = 1.0 + self.ph_sin_amp * np.sin(
                2.0 * np.pi * (lt + self.ph_sin_off) / self.ph_sin_per
            )
        if self.ph_sqw_rows is not None:
            lt = now - self.ph_sqw_start
            lt = np.where(lt > 0.0, lt, 0.0)
            pos = np.fmod(lt + self.ph_sqw_off, self.ph_sqw_per) / self.ph_sqw_per
            pos = np.where(pos < 0.0, pos + 1.0, pos)
            m[self.ph_sqw_rows] = np.where(pos < self.ph_sqw_duty, self.ph_sqw_hi, self.ph_sqw_lo)
        for row, task in self.ph_py:
            m[row] = task.phase_multiplier(now)
        return m

    def refresh_grant_inputs(self, allocations: Dict[Task, float], weights: Dict[Task, float]) -> None:
        n = self.n
        self.alloc_has = np.fromiter(
            (t in allocations for t in self.tasks), dtype=bool, count=n
        )
        self.alloc_val = np.fromiter(
            (allocations.get(t, 0.0) for t in self.tasks), dtype=float, count=n
        )
        self.weight_val = np.fromiter(
            (weights.get(t, 1.0) for t in self.tasks), dtype=float, count=n
        )
        self.alloc_all = bool(self.alloc_has.all())
        self.alloc_none = not self.alloc_all and not bool(self.alloc_has.any())
        self.g_key = None

    def ordered_rows(self, runnable: "np.ndarray", frozen: "np.ndarray") -> List[int]:
        """Store rows in scalar dispatch-update order.

        The object engine updates the load dict runnable-first then
        frozen *per core*; dict insertion order is observable through
        checkpoint snapshots, so mirror it exactly.
        """
        out: List[int] = []
        for s, e in self.core_bounds:
            for i in range(s, e):
                if runnable[i]:
                    out.append(i)
            for i in range(s, e):
                if frozen[i]:
                    out.append(i)
        return out


class ColumnarMetrics(MetricsCollector):
    """Metrics collector with vectorized recording and deferred samples.

    ``record`` slices one tick's per-task columns straight into
    preallocated :class:`~repro.sim.metrics.TickColumnBuffer` segments
    (one segment per contiguous task roster); the ``samples`` property
    materialises real :class:`TickSample` objects on first read, so every
    consumer (summary metrics, snapshots, journals, tests) sees the
    ordinary object API with identical floats.
    """

    def __init__(self, warmup_s: float = 2.0, sim: Optional["ColumnarSimulation"] = None):
        self._segments: List[TickColumnBuffer] = []
        self._samples_list: List[TickSample] = []
        self._sim = sim
        super().__init__(warmup_s=warmup_s)

    @property  # type: ignore[override]
    def samples(self) -> List[TickSample]:
        segments = self._segments
        if segments:
            out = self._samples_list
            for buf in segments:
                buf.materialise(out)
            segments.clear()
        return self._samples_list

    @samples.setter
    def samples(self, value) -> None:
        self._segments = []
        self._samples_list = list(value)

    def record(
        self,
        time_s: float,
        chip_power_w: float,
        cluster_power_w: Dict[str, float],
        cluster_frequency_mhz: Dict[str, float],
        tasks: Sequence[Task],
        cluster_temperature_c: Optional[Dict[str, float]] = None,
        estimated_chip_power_w: Optional[float] = None,
    ) -> None:
        sim = self._sim
        rowdata = sim._metrics_arrays(tasks) if sim is not None else None
        if rowdata is None:
            # Python fallback reads Task attributes: acquire the barrier,
            # and materialise deferred segments first so rows stay in
            # tick order (super() appends via the samples property).
            if sim is not None:
                sim.sync()
            super().record(
                time_s,
                chip_power_w,
                cluster_power_w,
                cluster_frequency_mhz,
                tasks,
                cluster_temperature_c,
                estimated_chip_power_w,
            )
            return
        names, hr, below, outside, sup, con = rowdata
        segments = self._segments
        if segments and (
            segments[-1].names is names or segments[-1].names == names
        ):
            buf = segments[-1]
        else:
            buf = TickColumnBuffer(names)
            segments.append(buf)
        buf.append(
            time_s,
            chip_power_w,
            hr,
            below,
            outside,
            sup,
            con,
            (
                dict(cluster_power_w),
                dict(cluster_frequency_mhz),
                None if cluster_temperature_c is None else dict(cluster_temperature_c),
                estimated_chip_power_w,
            ),
        )

    def energy_per_beat_mj(self, tasks: Sequence[Task], dt: float) -> float:
        # Reads Task.total_beats: a mid-run caller needs the barrier.
        if self._sim is not None:
            self._sim.sync()
        return super().energy_per_beat_mj(tasks, dt)


class ColumnarSimulation(Simulation):
    """Simulation with the struct-of-arrays hot loop.

    Constructed by ``Simulation(...)`` from
    :data:`~repro.sim.engine.VEC_MIN_TASKS` initial tasks up.
    """

    def __init__(self, chip, tasks, governor, config=None, migration_cost_model=None):
        super().__init__(
            chip, tasks, governor, config=config, migration_cost_model=migration_cost_model
        )
        self.metrics = ColumnarMetrics(warmup_s=self.config.metrics_warmup_s, sim=self)
        self._epoch: Optional[_Epoch] = None
        self._grant_inputs_dirty = True
        self._hr_cache: Optional["np.ndarray"] = None
        self._hr_stamp = -1
        # (tasks list object, epoch, row indices) for gather_demand_inputs;
        # callers reuse the same list while the market membership is
        # stable, so the rowmap walk happens once per (membership, epoch).
        self._gather_cache: Optional[tuple] = None
        # (starts, ends, max_start, all_unbounded) for the vector
        # active-task scan; rebuilt on invalidate_task_cache.
        self._task_window: Optional[tuple] = None
        #: Debug check for tests: poison the hot view attributes between
        #: barriers so an unsynchronised read raises.  Read every tick;
        #: it changes no value a barrier materialises.
        self.poison = False
        #: Barriers that actually flushed state (observability for tests).
        self.sync_count: int = 0
        # Per-column dirty epochs: tick stamp of the last unflushed column
        # write vs. the stamp the object view was last materialised at.
        cols = ("beats", "work", "sup", "con", "dem", "load")
        self._col_dirty: Dict[str, int] = {c: 0 for c in cols}
        self._col_synced: Dict[str, int] = {c: 0 for c in cols}
        self._view_dirty = False  # fast no-op check for sync()
        self._poisoned = False

    # -- cache invalidation -------------------------------------------------------
    def invalidate_task_cache(self) -> None:
        # Out-of-band task mutation follows: materialise the view first so
        # the mutation lands on current floats and the epoch rebuild
        # re-seeds its columns from a consistent object graph.
        self.sync()
        super().invalidate_task_cache()
        self._epoch = None
        self._grant_inputs_dirty = True
        self._hr_cache = None
        self._hr_stamp = -1
        self._task_window = None
        self._gather_cache = None

    # -- the observation barrier --------------------------------------------------
    def sync(self) -> None:
        """Materialise the object view of the authoritative columns.

        Flushes every column whose dirty epoch is ahead of its synced
        epoch back to ``Task`` attributes (and the load-tracker dict),
        then clears any poison sentinels.  A no-op when nothing changed
        since the last barrier, so hook sites call it unconditionally.
        Load-tracker values are written in place for keys already
        present only: retirement's ``forget`` must not be undone by a
        later barrier.
        """
        if not self._view_dirty:
            return
        ep = self._epoch
        if ep is not None and ep.n:
            dirty = self._col_dirty
            synced = self._col_synced
            poisoned = self._poisoned
            tasks = ep.tasks
            if poisoned or dirty["beats"] > synced["beats"]:
                bl = ep.beats.tolist()
                wl = ep.work.tolist()
                for t, tb, tw in zip(tasks, bl, wl):
                    t.total_beats = tb
                    t.total_work_pu_s = tw
                synced["beats"] = dirty["beats"]
                synced["work"] = dirty["work"]
            if poisoned or dirty["sup"] > synced["sup"]:
                sl = ep.sup.tolist()
                cl = ep.con.tolist()
                dl = ep.dem.tolist()
                for t, ts, tc, td in zip(tasks, sl, cl, dl):
                    t.last_supply_pus = ts
                    t.last_consumed_pus = tc
                    t.last_demand_pus = td
                synced["sup"] = dirty["sup"]
                synced["con"] = dirty["con"]
                synced["dem"] = dirty["dem"]
            if dirty["load"] > synced["load"]:
                tracked = self.load_tracker._load
                for t, v in zip(tasks, ep.load.tolist()):
                    if t in tracked:
                        tracked[t] = v
                synced["load"] = dirty["load"]
        self._view_dirty = False
        self._poisoned = False
        self.sync_count += 1

    def set_allocation(self, task: Task, pus: float) -> None:
        self._grant_inputs_dirty = True
        super().set_allocation(task, pus)

    def set_allocations(self, pairs: Dict[Task, float]) -> None:
        self._grant_inputs_dirty = True
        super().set_allocations(pairs)

    def clear_allocation(self, task: Task) -> None:
        self._grant_inputs_dirty = True
        super().clear_allocation(task)

    def clear_allocations(self) -> None:
        self._grant_inputs_dirty = True
        super().clear_allocations()

    def set_weight(self, task: Task, weight: float) -> None:
        self._grant_inputs_dirty = True
        super().set_weight(task, weight)

    # -- fast-path engine queries -------------------------------------------------
    def _active_now(self) -> List[Task]:
        if self._active_cache_now != self.now:
            now = self.now
            win = self._task_window
            if win is None:
                tasks = self.tasks
                n = len(tasks)
                starts = np.fromiter((t.start_time for t in tasks), dtype=float, count=n)
                ends = np.fromiter(
                    (
                        t.start_time + t.duration if t.duration is not None else math.inf
                        for t in tasks
                    ),
                    dtype=float,
                    count=n,
                )
                max_start = float(starts.max()) if n else 0.0
                all_unbounded = bool(np.isinf(ends).all())
                win = self._task_window = (starts, ends, max_start, all_unbounded)
            starts, ends, max_start, all_unbounded = win
            if all_unbounded and now >= max_start:
                # Every task started and none ever ends: the population
                # itself is the active list (do not mutate).
                self._active_cache = self.tasks
            else:
                mask = (now >= starts) & (now < ends)
                if bool(mask.all()):
                    self._active_cache = self.tasks
                else:
                    tasks = self.tasks
                    self._active_cache = [tasks[i] for i in np.nonzero(mask)[0].tolist()]
            self._active_cache_now = now
        return self._active_cache

    def _ensure_placed(self) -> None:
        # Common tick: the whole population is active and placed, so no
        # active task can be waiting for placement.  (Comparing against
        # the *population* size, not the active count, keeps scenarios
        # with pre-placed future tasks on the exact scan.)
        if (
            self.placement.placed_count() == len(self.tasks)
            and self._active_now() is self.tasks
        ):
            return
        super()._ensure_placed()

    def _retire_inactive(self) -> None:
        if not self._any_finite_task:
            return
        ep = self._epoch
        if ep is not None and ep.version == self.placement.version and ep.n:
            now = self.now
            if bool(((now >= ep.start) & (now < ep.end)).all()):
                return  # nothing placed can retire this tick
        super()._retire_inactive()

    # -- columnar observability ---------------------------------------------------
    def _heart_rates(self) -> "np.ndarray":
        """Per-store-row heart rates, cached per ring mutation stamp."""
        ep = self._epoch
        rings = ep.rings
        if self._hr_cache is not None and self._hr_stamp == rings.stamp:
            return self._hr_cache
        hr = rings.rate_all()
        for i in ep.py_rows:
            hr[i] = ep.tasks[i].hrm.heart_rate()
        self._hr_cache = hr
        self._hr_stamp = rings.stamp
        return hr

    def gather_demand_inputs(self, tasks: Sequence[Task]):
        """(heart rates, last consumed, last supplied) for ``tasks``.

        Served straight from the columnar buffers; identical values to
        the per-task attribute reads thanks to the per-tick write-back.
        Returns ``None`` (caller falls back to attributes) when any task
        is outside the current epoch.
        """
        ep = self._epoch
        if ep is None:
            return None
        cache = self._gather_cache
        if cache is not None and cache[0] is tasks and cache[1] is ep:
            rows = cache[2]
            ridx = cache[3]
        else:
            rowmap = ep.rowmap
            rows = []
            for t in tasks:
                r = rowmap.get(t)
                if r is None:
                    return None
                rows.append(r)
            ridx = np.asarray(rows, dtype=np.intp)
            self._gather_cache = (tasks, ep, rows, ridx)
        hr = self._heart_rates()[ridx]
        if ep.py_rows:
            # Scalar-route monitors can mutate without bumping the ring
            # stamp (e.g. an injector wrapper): always read them live.
            py_set = ep.py_set
            for k, r in enumerate(rows):
                if r in py_set:
                    hr[k] = ep.tasks[r].hrm.heart_rate()
        return hr, ep.con[ridx], ep.sup[ridx]

    def _metrics_arrays(self, tasks: Sequence[Task]):
        """Columnar tick sample for ``tasks``; None -> python fallback.

        Returns numpy arrays; the caller (:class:`ColumnarMetrics`) slices
        them into its column buffers, which performs the copy -- ``sup``
        and ``con`` mutate in place across ticks, so no view of them may
        outlive this tick uncopied.
        """
        ep = self._epoch
        if ep is None:
            return None
        if tasks is self.tasks and ep.covers_all:
            if ep.perm_identity:
                hr = self._heart_rates()
                lo = ep.lo
                hi = ep.hi
                below = hr < lo
                outside = ~((lo <= hr) & (hr <= hi))
                return (ep.perm_names, hr, below, outside, ep.sup, ep.con)
            ridx = ep.perm
            names = ep.perm_names
            lo = ep.perm_lo
            hi = ep.perm_hi
        else:
            rowmap = ep.rowmap
            rows: List[int] = []
            for t in tasks:
                r = rowmap.get(t)
                if r is None:
                    return None
                rows.append(r)
            ridx = np.asarray(rows, dtype=np.intp)
            names = tuple(t.name for t in tasks)
            lo = ep.lo[ridx]
            hi = ep.hi[ridx]
        hr = self._heart_rates()[ridx]
        below = hr < lo
        outside = ~((lo <= hr) & (hr <= hi))
        return (names, hr, below, outside, ep.sup[ridx], ep.con[ridx])

    # -- epoch construction -------------------------------------------------------
    def _build_epoch(self) -> _Epoch:
        # The columns below are seeded from the object view; flush any
        # state the previous epoch still held (placement.version bumps
        # reach here without passing invalidate_task_cache).
        self.sync()
        placement = self.placement
        chip = self.chip
        dt = self.config.dt
        ep = _Epoch()
        ep.version = placement.version
        ep.dt = dt

        tasks: List[Task] = []
        core_ix: List[int] = []
        core_bounds: List[Tuple[int, int]] = []
        cores = []
        clusters = list(chip.clusters)
        cluster_index = {id(cl): j for j, cl in enumerate(clusters)}
        cluster_ix: List[int] = []
        for cluster in clusters:
            for core in cluster.cores:
                j = len(cores)
                cores.append(core)
                cluster_ix.append(cluster_index[id(cluster)])
                s = len(tasks)
                for t in placement.iter_tasks_on_core(core):
                    tasks.append(t)
                    core_ix.append(j)
                core_bounds.append((s, len(tasks)))
        n = len(tasks)
        ep.tasks = tasks
        ep.rowmap = {t: i for i, t in enumerate(tasks)}
        ep.cores = cores
        ep.ncores = len(cores)
        ep.core_ix = np.asarray(core_ix, dtype=np.intp)
        ep.core_bounds = core_bounds
        ep.clusters = clusters
        ep.cluster_ix = np.asarray(cluster_ix, dtype=np.intp)
        ep.n = n

        # Permutation fast path: when the previous epoch covers exactly
        # this population (the usual migration rebuild -- version bumps
        # reach here with the same tasks on different cores), every
        # task-invariant column is a row gather from the old epoch, and
        # the mutable columns were just flushed by the sync() above so
        # they equal the object attributes bit for bit.  Out-of-band
        # mutators go through invalidate_task_cache, which clears
        # ``_epoch`` and forces the slow seed-from-objects walk.
        old = self._epoch
        perm: Optional["np.ndarray"] = None
        if old is not None and old.n == n and n:
            try:
                perm = np.asarray([old.rowmap[t] for t in tasks], dtype=np.intp)
            except KeyError:
                perm = None

        if perm is not None:
            ep.start = old.start[perm]
            ep.end = old.end[perm]
        else:
            ep.start = np.fromiter(
                (t.start_time for t in tasks), dtype=float, count=n
            )
            ep.end = np.fromiter(
                (
                    t.start_time + t.duration if t.duration is not None else math.inf
                    for t in tasks
                ),
                dtype=float,
                count=n,
            )
        ep.max_start = float(ep.start.max()) if n else 0.0
        ep.min_end = float(ep.end.min()) if n else math.inf
        # ``frozen_until`` writers (migration, snapshot restore) always
        # invalidate the epoch, so the horizon is fixed for its lifetime.
        ep.fz_max = max((t.frozen_until for t in tasks), default=0.0)
        ep.core_counts = np.asarray([e - s for s, e in core_bounds], dtype=float)
        if perm is not None:
            ep.tgt_hr = old.tgt_hr[perm]
            ep.has_limit = old.has_limit[perm]
            ep.limit = old.limit[perm]
            ep.lo = old.lo[perm]
            ep.hi = old.hi[perm]
            # cost_pu_s_per_beat depends on the hosting core type only:
            # gather, then recompute just the rows whose type changed
            # (normally the one migrated task).
            ep.cost_base = old.cost_base[perm]
            type_ix: Dict[int, int] = {}

            def _tix(ct: object) -> int:
                v = type_ix.get(id(ct))
                if v is None:
                    v = type_ix[id(ct)] = len(type_ix)
                return v

            old_ct = np.asarray(
                [_tix(c.cluster.core_type) for c in old.cores], dtype=np.intp
            )
            new_ct = np.asarray(
                [_tix(c.cluster.core_type) for c in cores], dtype=np.intp
            )
            retype = np.nonzero(old_ct[old.core_ix[perm]] != new_ct[ep.core_ix])[0]
            for i in retype.tolist():
                t = tasks[i]
                ep.cost_base[i] = t.profile.cost_pu_s_per_beat(
                    cores[core_ix[i]].cluster.core_type, 1.0
                )
        else:
            ep.tgt_hr = np.fromiter(
                (t.target_hr for t in tasks), dtype=float, count=n
            )
            cost_base: List[float] = []
            has_limit: List[bool] = []
            limit: List[float] = []
            lo: List[float] = []
            hi: List[float] = []
            rel_eps = 1e-9  # HeartRateRange._REL_EPS, inlined like metrics.record
            for i, t in enumerate(tasks):
                core_type = cores[core_ix[i]].cluster.core_type
                cost_base.append(t.profile.cost_pu_s_per_beat(core_type, 1.0))
                wl = t.profile.work_limit_factor
                has_limit.append(wl is not None)
                limit.append(wl if wl is not None else 0.0)
                rng = t.hr_range
                lo.append(rng.min_hr * (1.0 - rel_eps))
                hi.append(rng.max_hr * (1.0 + rel_eps))
            ep.cost_base = np.asarray(cost_base, dtype=float)
            ep.has_limit = np.asarray(has_limit, dtype=bool)
            ep.limit = np.asarray(limit, dtype=float)
            ep.lo = np.asarray(lo, dtype=float)
            ep.hi = np.asarray(hi, dtype=float)
        ep.any_limit = bool(ep.has_limit.any())

        # Mutable state columns, initialised from the authoritative
        # attributes (write-back keeps the two views identical).  After
        # the sync() barrier above, the previous epoch's columns equal
        # the attributes exactly, so the permuted gather is the same
        # seed without the per-task attribute walk.
        if perm is not None:
            ep.beats = old.beats[perm]
            ep.work = old.work[perm]
            ep.sup = old.sup[perm]
            ep.con = old.con[perm]
            ep.dem = old.dem[perm]
        else:
            ep.beats = np.fromiter(
                (t.total_beats for t in tasks), dtype=float, count=n
            )
            ep.work = np.fromiter(
                (t.total_work_pu_s for t in tasks), dtype=float, count=n
            )
            ep.sup = np.fromiter(
                (t.last_supply_pus for t in tasks), dtype=float, count=n
            )
            ep.con = np.fromiter(
                (t.last_consumed_pus for t in tasks), dtype=float, count=n
            )
            ep.dem = np.fromiter(
                (t.last_demand_pus for t in tasks), dtype=float, count=n
            )
        tracked = self.load_tracker._load
        ep.load = np.fromiter((tracked.get(t, 0.0) for t in tasks), dtype=float, count=n)
        ep.has_load = np.fromiter((t in tracked for t in tasks), dtype=bool, count=n)

        # Phase traces: group rows by trace type for vector evaluation;
        # anything else (piecewise, custom) evaluates per task.
        if perm is not None:
            inv = np.empty(n, dtype=np.intp)
            inv[perm] = np.arange(n, dtype=np.intp)
            self._remap_phase_groups(ep, old, perm, inv, n)
            ep.mult_buf = np.empty(n, dtype=float)
            return self._finish_epoch(ep, tasks, n, dt, old=old, inv=inv)
        const_rows: List[int] = []
        const_vals: List[float] = []
        sin_rows: List[int] = []
        sin_p: List[Tuple[float, float, float, float]] = []
        sqw_rows: List[int] = []
        sqw_p: List[Tuple[float, float, float, float, float, float]] = []
        ph_py: List[Tuple[int, Task]] = []
        for i, t in enumerate(tasks):
            ph = t.profile.phases
            tp = type(ph)
            if tp is ConstantPhase:
                const_rows.append(i)
                const_vals.append(ph.multiplier)
            elif tp is SinusoidalPhases:
                sin_rows.append(i)
                sin_p.append((t.start_time, ph.amplitude, ph.period_s, ph.offset_s))
            elif tp is SquareWavePhases:
                sqw_rows.append(i)
                sqw_p.append(
                    (t.start_time, ph.period_s, ph.low, ph.high, ph.duty, ph.offset_s)
                )
            else:
                ph_py.append((i, t))
        ep.all_const = len(const_rows) == n
        ep.ph_py = ph_py
        if ep.all_const:
            ep.const_buf = np.asarray(const_vals, dtype=float)
            ep.ph_const_rows = None
            ep.ph_const_vals = None
            # Tick-invariant demand chain (same expressions as the per-tick
            # path, evaluated once): cost = base * mult, demand = hr * cost.
            ep.cost_const = ep.cost_base * ep.const_buf
            ep.dem_const = ep.tgt_hr * ep.cost_const
        else:
            ep.cost_const = None
            ep.dem_const = None
            ep.const_buf = None
            ep.ph_const_rows = (
                np.asarray(const_rows, dtype=np.intp) if const_rows else None
            )
            ep.ph_const_vals = (
                np.asarray(const_vals, dtype=float) if const_rows else None
            )
        if sin_rows:
            ep.ph_sin_rows = np.asarray(sin_rows, dtype=np.intp)
            arr = np.asarray(sin_p, dtype=float)
            ep.ph_sin_start = arr[:, 0].copy()
            ep.ph_sin_amp = arr[:, 1].copy()
            ep.ph_sin_per = arr[:, 2].copy()
            ep.ph_sin_off = arr[:, 3].copy()
        else:
            ep.ph_sin_rows = None
            ep.ph_sin_start = ep.ph_sin_amp = ep.ph_sin_per = ep.ph_sin_off = None
        if sqw_rows:
            ep.ph_sqw_rows = np.asarray(sqw_rows, dtype=np.intp)
            arr = np.asarray(sqw_p, dtype=float)
            ep.ph_sqw_start = arr[:, 0].copy()
            ep.ph_sqw_per = arr[:, 1].copy()
            ep.ph_sqw_lo = arr[:, 2].copy()
            ep.ph_sqw_hi = arr[:, 3].copy()
            ep.ph_sqw_duty = arr[:, 4].copy()
            ep.ph_sqw_off = arr[:, 5].copy()
        else:
            ep.ph_sqw_rows = None
            ep.ph_sqw_start = ep.ph_sqw_per = ep.ph_sqw_lo = None
            ep.ph_sqw_hi = ep.ph_sqw_duty = ep.ph_sqw_off = None
        ep.mult_buf = np.empty(n, dtype=float)
        return self._finish_epoch(ep, tasks, n, dt)

    def _remap_phase_groups(
        self, ep: _Epoch, old: _Epoch, perm: "np.ndarray", inv: "np.ndarray", n: int
    ) -> None:
        """Carry the old epoch's phase-trace groups over a row permutation.

        Produces exactly what the per-task classification loop would:
        the trace parameters are task invariants, so each group maps row
        numbers through the inverse permutation and re-sorts ascending
        (the loop emits rows in ascending order).
        """
        ep.all_const = old.all_const
        ep.ph_py = sorted(
            ((int(inv[r]), t) for r, t in old.ph_py), key=lambda p: p[0]
        )
        if old.all_const:
            ep.const_buf = old.const_buf[perm]
            ep.ph_const_rows = None
            ep.ph_const_vals = None
            # cost_base can change on migration, so the tick-invariant
            # products are recomputed from the fresh columns.
            ep.cost_const = ep.cost_base * ep.const_buf
            ep.dem_const = ep.tgt_hr * ep.cost_const
        else:
            ep.cost_const = None
            ep.dem_const = None
            ep.const_buf = None
            if old.ph_const_rows is not None:
                rows = inv[old.ph_const_rows]
                order = np.argsort(rows)
                ep.ph_const_rows = rows[order]
                ep.ph_const_vals = old.ph_const_vals[order]
            else:
                ep.ph_const_rows = None
                ep.ph_const_vals = None
        if old.ph_sin_rows is not None:
            rows = inv[old.ph_sin_rows]
            order = np.argsort(rows)
            ep.ph_sin_rows = rows[order]
            ep.ph_sin_start = old.ph_sin_start[order]
            ep.ph_sin_amp = old.ph_sin_amp[order]
            ep.ph_sin_per = old.ph_sin_per[order]
            ep.ph_sin_off = old.ph_sin_off[order]
        else:
            ep.ph_sin_rows = None
            ep.ph_sin_start = ep.ph_sin_amp = ep.ph_sin_per = ep.ph_sin_off = None
        if old.ph_sqw_rows is not None:
            rows = inv[old.ph_sqw_rows]
            order = np.argsort(rows)
            ep.ph_sqw_rows = rows[order]
            ep.ph_sqw_start = old.ph_sqw_start[order]
            ep.ph_sqw_per = old.ph_sqw_per[order]
            ep.ph_sqw_lo = old.ph_sqw_lo[order]
            ep.ph_sqw_hi = old.ph_sqw_hi[order]
            ep.ph_sqw_duty = old.ph_sqw_duty[order]
            ep.ph_sqw_off = old.ph_sqw_off[order]
        else:
            ep.ph_sqw_rows = None
            ep.ph_sqw_start = ep.ph_sqw_per = ep.ph_sqw_lo = None
            ep.ph_sqw_hi = ep.ph_sqw_duty = ep.ph_sqw_off = None

    def _finish_epoch(
        self,
        ep: _Epoch,
        tasks: List[Task],
        n: int,
        dt: float,
        old: Optional[_Epoch] = None,
        inv: Optional["np.ndarray"] = None,
    ) -> _Epoch:
        # Heart-rate monitors: adopt plain, uninstrumented monitors (and
        # re-adopt views from a previous epoch) into shared rings; tasks
        # with wrapped/subclassed monitors keep the scalar route so
        # injected heartbeat faults keep working.  Views re-adopt via a
        # ring-to-ring array gather; scalar monitors round-trip through
        # their sample deques.
        windows: List[float] = [1.0] * n
        samples: List[Sequence[Tuple[float, float]]] = [()] * n
        vec_rows: List[int] = []
        py_rows: List[int] = []
        col_src: List[Tuple[int, _HRMRings, int]] = []
        for i, t in enumerate(tasks):
            hrm = t.hrm
            tp = type(hrm)
            plain = "record" not in hrm.__dict__
            if tp is HeartRateMonitor and plain:
                vec_rows.append(i)
                windows[i] = hrm._window_s
                samples[i] = tuple(hrm._samples)
            elif tp is ColumnarHRM and plain:
                vec_rows.append(i)
                # window comes from the source ring, gathered in adopt()
                col_src.append((i, hrm._rings, hrm._row))
            else:
                py_rows.append(i)
        steal = False
        if col_src:
            # Identity steal: a pure placement change keeps the task list
            # (and hence the row order) intact, so when every row's view
            # points at the outgoing epoch's rings in row order and the
            # tick length is unchanged, those rings are already this
            # epoch's rings -- adopt them wholesale.  The old epoch is
            # discarded on seal, so the arrays have a single owner.
            ring0 = old.rings if old is not None and old.dt == dt else None
            if (
                ring0 is not None
                and len(col_src) == n
                and all(
                    src is ring0 and row == i for i, src, row in col_src
                )
            ):
                ep.rings = ring0
                steal = True
            else:
                ep.rings = _HRMRings.adopt(windows, samples, col_src, dt)
        else:
            ep.rings = _HRMRings(windows, samples, dt)
        ep.vec_rows = np.asarray(vec_rows, dtype=np.intp)
        ep.py_rows = py_rows
        ep.py_set = set(py_rows)
        ep.all_vec = not py_rows and len(vec_rows) == n
        if not steal:
            # Stolen rings leave every task's existing view valid (same
            # rings object, same row); fresh rings need rebinding.
            for i in vec_rows:
                tasks[i].hrm = ColumnarHRM(ep.rings, i)

        # Metrics permutation: store rows in population order, usable
        # whenever the tick's active list is the population itself.
        # Against a same-population previous epoch, the new permutation
        # composes the old one with the row remap (self.tasks can only
        # change through invalidate_task_cache, which drops the epoch):
        # perm'[i] = rowmap'[tasks_pop[i]] = inv[old.perm[i]].
        if old is not None and inv is not None and old.covers_all and len(self.tasks) == n:
            ep.covers_all = True
            ep.perm = inv[old.perm]
            ep.perm_names = old.perm_names
            ep.perm_identity = bool(
                (ep.perm == np.arange(n, dtype=np.intp)).all()
            )
            ep.perm_lo = ep.lo if ep.perm_identity else ep.lo[ep.perm]
            ep.perm_hi = ep.hi if ep.perm_identity else ep.hi[ep.perm]
            return self._seal_epoch(ep, n)
        ep.covers_all = n == len(self.tasks) and all(t in ep.rowmap for t in self.tasks)
        if ep.covers_all:
            ep.perm = np.asarray([ep.rowmap[t] for t in self.tasks], dtype=np.intp)
            ep.perm_names = tuple(t.name for t in self.tasks)
            ep.perm_identity = bool((ep.perm == np.arange(n, dtype=np.intp)).all())
            ep.perm_lo = ep.lo if ep.perm_identity else ep.lo[ep.perm]
            ep.perm_hi = ep.hi if ep.perm_identity else ep.hi[ep.perm]
        else:
            ep.perm = None
            ep.perm_names = None
            ep.perm_identity = False
            ep.perm_lo = None
            ep.perm_hi = None
        return self._seal_epoch(ep, n)

    def _seal_epoch(self, ep: _Epoch, n: int) -> _Epoch:
        """Reset the lazily-derived members and install the epoch."""
        ep.all_has_load = n > 0 and bool(ep.has_load.all())
        ep.alloc_has = None
        ep.alloc_val = None
        ep.weight_val = None
        ep.alloc_all = False
        ep.alloc_none = False
        ep.g_key = None
        ep.g_sup_core = None
        ep.g_grants = None
        ep.g_cons = None
        ep.g_beats_inc = None
        ep.g_work_inc = None
        ep.g_util = None
        ep.g_inst = None
        ep.g_load_c = None
        self._grant_inputs_dirty = True
        self._hr_cache = None
        self._hr_stamp = -1
        # Fresh columns == object view: the epoch starts clean.
        self._col_synced.update(self._col_dirty)
        self._view_dirty = False
        self._epoch = ep
        return ep

    # -- the hot loop -------------------------------------------------------------
    def _dispatch(self) -> None:
        placement = self.placement
        dt = self.config.dt
        now = self.now
        ep = self._epoch
        if ep is None or ep.version != placement.version or ep.dt != dt:
            ep = self._build_epoch()
        n = ep.n
        if n == 0:
            for core in ep.cores:
                core.utilization = 0.0
            active = self._active_now()
            if active:  # placed_count() == 0 != len(active)
                for task in active:
                    task.idle_tick(now, dt)
            return

        if ep.max_start <= now < ep.min_end and ep.fz_max <= now:
            self._dispatch_fast(ep, now, dt)
            return

        # The masked path writes zeros into frozen/inactive rows of the
        # state columns; force the fast path to rebuild its consume cache
        # (and re-write sup/con/dem) on the next hot tick.
        ep.g_key = None

        # Rare tick (arrival/retire/freeze window): write every attribute
        # through, as the object loop does.  The barrier first flushes
        # whatever the fast path deferred -- in particular load-dict
        # values of rows inactive this tick, which the masked update
        # below would otherwise leave stale.
        self.sync()

        active = (now >= ep.start) & (now < ep.end)
        # ``frozen_until`` is authoritative on the task (migrations and
        # tests write it directly), so gather it fresh each tick.
        fz = np.fromiter((t.frozen_until for t in ep.tasks), dtype=float, count=n)
        frozen = active & (fz > now)
        runnable = active & ~frozen
        inactive_mapped = not bool(active.all())

        # Demand at ``now`` (same expression chain as Task.consume).
        mult = ep.multipliers(now)
        cost = ep.cost_base * mult
        demand = ep.tgt_hr * cost

        # Grants: vectorized compute_grants per core, same fold order.
        cix = ep.core_ix
        ncores = ep.ncores
        sup_core = ep.core_supplies()
        if self._grant_inputs_dirty or ep.alloc_has is None:
            ep.refresh_grant_inputs(self._allocations, self._weights)
            self._grant_inputs_dirty = False
        expl = runnable & ep.alloc_has
        pooled = runnable & ~ep.alloc_has
        ev = np.where(expl, np.where(ep.alloc_val > 0.0, ep.alloc_val, 0.0), 0.0)
        requested = np.bincount(cix, weights=ev, minlength=ncores)
        need_scale = (requested > sup_core) & (requested > 0.0)
        scale = np.where(
            need_scale, sup_core / np.where(need_scale, requested, 1.0), 1.0
        )
        grants = ev * scale[cix]
        granted_total = np.bincount(cix, weights=grants, minlength=ncores)
        leftover = sup_core - granted_total
        wv = np.where(pooled, np.where(ep.weight_val > 0.0, ep.weight_val, 0.0), 0.0)
        total_w = np.bincount(cix, weights=wv, minlength=ncores)
        npooled = np.bincount(cix[pooled], minlength=ncores)
        weighted = (leftover[cix] * wv) / np.where(total_w > 0.0, total_w, 1.0)[cix]
        equal = leftover[cix] / np.where(npooled > 0, npooled, 1)[cix]
        pool_grant = np.where(total_w[cix] > 0.0, weighted, equal)
        grants = np.where(pooled & (leftover[cix] > 0.0), pool_grant, grants)
        total = np.bincount(cix, weights=grants, minlength=ncores)
        over = total > sup_core * (1.0 + 1e-9)
        if bool(over.any()):
            factor = np.where(over, sup_core / np.where(over, total, 1.0), 1.0)
            grants = grants * factor[cix]

        # Consume (Task.consume, vectorized).
        cons = grants
        if ep.any_limit:
            cons = np.where(ep.has_limit, np.minimum(grants, ep.limit * demand), grants)
        beats = cons * dt / cost
        np.add(ep.beats, beats, out=ep.beats, where=runnable)
        np.add(ep.work, cons * dt, out=ep.work, where=runnable)
        np.copyto(ep.sup, grants, where=runnable)
        np.copyto(ep.con, cons, where=runnable)
        np.copyto(ep.dem, demand, where=runnable)
        if bool(frozen.any()):
            np.copyto(ep.sup, 0.0, where=frozen)
            np.copyto(ep.con, 0.0, where=frozen)

        # Core utilization: in-order fold of consumed supply per core.
        consumed_core = np.bincount(
            cix, weights=np.where(runnable, cons, 0.0), minlength=ncores
        )
        util = np.where(
            sup_core > 0.0,
            np.minimum(1.0, consumed_core / np.where(sup_core > 0.0, sup_core, 1.0)),
            0.0,
        )
        for core, u in zip(ep.cores, util.tolist()):
            core.utilization = u

        # Load tracking (LoadTracker.update, vectorized): runnable rows
        # fold their granted supply, frozen rows fold zero supply.
        g_eff = np.where(runnable, grants, 0.0)
        inst = np.where(
            demand <= 0.0,
            0.0,
            np.where(
                g_eff <= 0.0,
                1.0,
                np.minimum(1.0, demand / np.where(g_eff > 0.0, g_eff, 1.0)),
            ),
        )
        decay = self.load_tracker.decay_for(dt)
        prev = np.where(ep.has_load, ep.load, inst)
        np.copyto(ep.load, decay * prev + (1.0 - decay) * inst, where=active)
        ep.has_load |= active
        any_frozen = bool(frozen.any())
        if any_frozen:
            order = ep.ordered_rows(runnable, frozen)
        else:
            order = np.nonzero(active)[0].tolist()
        tasks = ep.tasks
        loads = ep.load
        self.load_tracker.update_many(
            (tasks[i], v) for i, v in zip(order, loads[order].tolist())
        )

        # Heartbeats: ring append for adopted rows, scalar record for the
        # instrumented ones (both runnable and frozen record; inactive
        # mapped tasks do not).
        t_new = now + dt
        if ep.vec_rows.size:
            act_vec = ep.vec_rows[active[ep.vec_rows]]
            ep.rings.append_many(act_vec, t_new, ep.beats[act_vec])
        if ep.py_rows:
            b = ep.beats
            for i in ep.py_rows:
                if active[i]:
                    tasks[i].hrm.record(t_new, float(b[i]))
            # Scalar-route mutations bypass the ring stamp; invalidate
            # the heart-rate cache by hand.
            ep.rings.stamp += 1

        # Write-through: the task attributes stay authoritative, so the
        # epoch is a pure cache and every out-of-band reader/mutator
        # (faults, snapshots, admission, tests) keeps working unchanged.
        bl = ep.beats.tolist()
        wl = ep.work.tolist()
        sl = ep.sup.tolist()
        cl = ep.con.tolist()
        dl = ep.dem.tolist()
        for t, tb, tw, ts, tc, td in zip(tasks, bl, wl, sl, cl, dl):
            t.total_beats = tb
            t.total_work_pu_s = tw
            t.last_supply_pus = ts
            t.last_consumed_pus = tc
            t.last_demand_pus = td

        # Active tasks not mapped to any core idle in place (same scan
        # condition as the object engine).
        active_list = self._active_now()
        if inactive_mapped or placement.placed_count() != len(active_list):
            for task in active_list:
                if not placement.is_placed(task):
                    task.idle_tick(now, dt)

    def _grants_all(self, ep: _Epoch, sup_core: "np.ndarray") -> "np.ndarray":
        """compute_grants over every core with all mapped tasks runnable.

        Identical fold order to the masked path in :meth:`_dispatch`; the
        all-explicit / all-pooled shortcuts skip arms whose inputs are
        statically zero, which leaves the surviving expressions unchanged.
        """
        cix = ep.core_ix
        ncores = ep.ncores
        if ep.alloc_all:
            av = ep.alloc_val
            ev = np.where(av > 0.0, av, 0.0)
            requested = np.bincount(cix, weights=ev, minlength=ncores)
            need_scale = (requested > sup_core) & (requested > 0.0)
            scale = np.where(
                need_scale, sup_core / np.where(need_scale, requested, 1.0), 1.0
            )
            grants = ev * scale[cix]
            total = np.bincount(cix, weights=grants, minlength=ncores)
        elif ep.alloc_none:
            # No explicit allocations: grants start at zero, the whole
            # supply is the leftover shared by the pooled (= all) tasks.
            leftover = sup_core
            wv = np.where(ep.weight_val > 0.0, ep.weight_val, 0.0)
            total_w = np.bincount(cix, weights=wv, minlength=ncores)
            npooled = ep.core_counts
            weighted = (leftover[cix] * wv) / np.where(total_w > 0.0, total_w, 1.0)[cix]
            equal = leftover[cix] / np.where(npooled > 0, npooled, 1)[cix]
            pool_grant = np.where(total_w[cix] > 0.0, weighted, equal)
            grants = np.where(leftover[cix] > 0.0, pool_grant, 0.0)
            total = np.bincount(cix, weights=grants, minlength=ncores)
        else:
            expl = ep.alloc_has
            ev = np.where(expl, np.where(ep.alloc_val > 0.0, ep.alloc_val, 0.0), 0.0)
            requested = np.bincount(cix, weights=ev, minlength=ncores)
            need_scale = (requested > sup_core) & (requested > 0.0)
            scale = np.where(
                need_scale, sup_core / np.where(need_scale, requested, 1.0), 1.0
            )
            grants = ev * scale[cix]
            granted_total = np.bincount(cix, weights=grants, minlength=ncores)
            leftover = sup_core - granted_total
            pooled = ~expl
            wv = np.where(pooled, np.where(ep.weight_val > 0.0, ep.weight_val, 0.0), 0.0)
            total_w = np.bincount(cix, weights=wv, minlength=ncores)
            npooled = np.bincount(cix[pooled], minlength=ncores)
            weighted = (leftover[cix] * wv) / np.where(total_w > 0.0, total_w, 1.0)[cix]
            equal = leftover[cix] / np.where(npooled > 0, npooled, 1)[cix]
            pool_grant = np.where(total_w[cix] > 0.0, weighted, equal)
            grants = np.where(pooled & (leftover[cix] > 0.0), pool_grant, grants)
            total = np.bincount(cix, weights=grants, minlength=ncores)
        over = total > sup_core * (1.0 + 1e-9)
        if bool(over.any()):
            factor = np.where(over, sup_core / np.where(over, total, 1.0), 1.0)
            grants = grants * factor[cix]
        return grants

    def _dispatch_fast(self, ep: _Epoch, now: float, dt: float) -> None:
        """Hot tick: every mapped task is active and unfrozen.

        Grants depend only on (allocations, weights, per-cluster supply);
        consumption additionally on the phase multiplier.  Both layers are
        cached and reused until one of their inputs changes, so between
        market rounds a tick reduces to the genuinely time-varying work:
        beat/work accumulation, the load EWMA fold and heart-rate ring
        appends.  The written columns are marked dirty; the object view
        waits for the next :meth:`sync` barrier.
        """
        tasks = ep.tasks
        if self._grant_inputs_dirty or ep.alloc_has is None:
            ep.refresh_grant_inputs(self._allocations, self._weights)
            self._grant_inputs_dirty = False
        sup_key = tuple(cl.supply_pus for cl in ep.clusters)
        if ep.g_key != sup_key:
            ep.g_sup_core = np.asarray(sup_key, dtype=float)[ep.cluster_ix]
            ep.g_grants = self._grants_all(ep, ep.g_sup_core)
            ep.g_key = sup_key
            refresh = True
        else:
            refresh = ep.dem_const is None
        if refresh:
            if ep.dem_const is not None:
                demand, cost = ep.dem_const, ep.cost_const
            else:
                mult = ep.multipliers(now)
                cost = ep.cost_base * mult
                demand = ep.tgt_hr * cost
            grants = ep.g_grants
            cons = grants
            if ep.any_limit:
                cons = np.where(
                    ep.has_limit, np.minimum(grants, ep.limit * demand), grants
                )
            ep.g_cons = cons
            ep.g_beats_inc = cons * dt / cost
            ep.g_work_inc = cons * dt
            consumed_core = np.bincount(ep.core_ix, weights=cons, minlength=ep.ncores)
            sup_core = ep.g_sup_core
            ep.g_util = np.where(
                sup_core > 0.0,
                np.minimum(1.0, consumed_core / np.where(sup_core > 0.0, sup_core, 1.0)),
                0.0,
            ).tolist()
            inst = np.where(
                demand <= 0.0,
                0.0,
                np.where(
                    grants <= 0.0,
                    1.0,
                    np.minimum(1.0, demand / np.where(grants > 0.0, grants, 1.0)),
                ),
            )
            ep.g_inst = inst
            ep.g_load_c = (1.0 - self.load_tracker.decay_for(dt)) * inst
            ep.sup[...] = grants
            ep.con[...] = cons
            ep.dem[...] = demand
            # Stamp with tick_index + 1: tick_index is 0-based and the
            # synced stamps start at 0, so tick 0's writes must land
            # strictly above them.
            dirty = self._col_dirty
            ti = self.tick_index + 1
            dirty["sup"] = dirty["con"] = dirty["dem"] = ti
            self._view_dirty = True

        # Time-varying tail: accumulate, fold, record.
        ep.beats += ep.g_beats_inc
        ep.work += ep.g_work_inc
        for core, u in zip(ep.cores, ep.g_util):
            core.utilization = u
        decay = self.load_tracker.decay_for(dt)
        load = ep.load
        if ep.all_has_load:
            np.add(decay * load, ep.g_load_c, out=load)
            # Every key is already present, so deferring the dict write
            # cannot change insertion order; sync() updates values in
            # place.
            self._col_dirty["load"] = self.tick_index + 1
            self._view_dirty = True
        else:
            prev = np.where(ep.has_load, load, ep.g_inst)
            np.add(decay * prev, ep.g_load_c, out=load)
            ep.has_load[...] = True
            ep.all_has_load = True
            # First fold for some rows: the dict update below may insert
            # new keys, whose position is part of the checkpoint bytes --
            # so write through now.
            self.load_tracker.update_many(zip(tasks, load.tolist()))

        t_new = now + dt
        if ep.all_vec:
            ep.rings.append_many(ep.vec_rows, t_new, ep.beats)
        elif ep.vec_rows.size:
            ep.rings.append_many(ep.vec_rows, t_new, ep.beats[ep.vec_rows])
        if ep.py_rows:
            b = ep.beats
            for i in ep.py_rows:
                tasks[i].hrm.record(t_new, float(b[i]))
            ep.rings.stamp += 1

        # sup/con/dem are unchanged on cache-hit ticks, so only the
        # accumulating columns are marked for the barrier here.
        dirty = self._col_dirty
        ti = self.tick_index + 1
        dirty["beats"] = dirty["work"] = ti
        self._view_dirty = True
        if self.poison and not self._poisoned:
            pb, pw, ps, pc, pd = _POISONS
            for t in tasks:
                t.total_beats = pb
                t.total_work_pu_s = pw
                t.last_supply_pus = ps
                t.last_consumed_pus = pc
                t.last_demand_pus = pd
            self._poisoned = True

        active_list = self._active_now()
        placement = self.placement
        if placement.placed_count() != len(active_list):
            for task in active_list:
                if not placement.is_placed(task):
                    task.idle_tick(now, dt)
