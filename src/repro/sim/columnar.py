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
  ``last_consumed_pus``) and the load-tracker dict
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
  The population changes only through :meth:`Simulation.add_task` and
  :meth:`Simulation.end_task`, which sync and drop the epoch.
* **One dispatch pass.**  Every tick runs the same pass; the epoch's
  start, end and frozen-until bounds only decide whether it needs row
  masks (some mapped row has not started, has ended or is frozen by a
  migration).  Grants come from the scheduler's one vectorised rule,
  :func:`~repro.sim.scheduler.compute_grants_batch`, and the epoch keeps
  them and the terms that follow while every row runs and their inputs
  hold.  The object view waits for the barrier unless the tick inserts
  load-dict keys or skips a mapped row; then every attribute is written
  through.
* **Grants by row.**  A market round hands its grants over as one column
  in the market's row order (:meth:`ColumnarSimulation.set_allocations`),
  scattered into the epoch's grant inputs through a row index the epoch
  holds, so the index goes with its epoch.  A move's permutation carries
  the inputs over; only a seed, or an edit through ``set_allocation``,
  ``clear_allocation(s)`` or ``set_weight``, rebuilds them from the
  allocation and weight dicts.
* **Epoch caching.**  Per-task constant arrays (start/end times, QoS
  bounds, per-beat costs, phase parameters) are rebuilt only when the
  placement mapping changes (:attr:`Placement.version`), the population
  changes, or ``dt`` changes.  A rebuild that keeps the population
  (an LBT move) permutes the outgoing epoch's rows, heart-rate rings
  included, and keeps its dirty stamps; any other rebuild re-seeds the
  columns from the object view, so a barrier precedes it.
* **One tick clock.**  Every active task records one heart-rate sample
  per tick, at ``now + dt``, from its start until it ends, so an
  epoch's rows differ only in how many of the newest ticks they hold,
  and the rings keep one shared time column.  Monitor views live only
  inside their epoch: a seed hands every task that leaves the epoch a
  plain ``HeartRateMonitor`` with the view's samples, which records
  through ``Task.idle_tick`` while the task is off the dispatch map.
"""

from __future__ import annotations

import math
from array import array
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..tasks.heartbeats import HeartRateMonitor
from ..tasks.phases import ConstantPhase, SinusoidalPhases, SquareWavePhases
from ..tasks.task import Task
from .engine import Simulation
from .metrics import MetricsCollector, TaskSample, TickColumnBuffer, TickSample
from .scheduler import compute_grants_batch


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
    )
)


#: Per-row columns of an epoch that a same-population rebuild gathers
#: through the row permutation: task invariants and mutable state alike.
_ROW_COLUMNS = (
    "start",
    "end",
    "tgt_hr",
    "has_limit",
    "limit",
    "lo",
    "hi",
    "cost_base",
    "beats",
    "work",
    "sup",
    "con",
    "load",
    "has_load",
    "fz",
)


class _HRMRings:
    """The heart-rate windows of an epoch's rows, on one shared tick clock.

    Every active task records one sample per tick, at ``now + dt``, so the
    rows differ only in how many of the clock's newest ticks they hold:
    row ``i`` holds the newest ``count[i]`` of the ``size`` times in the
    time ring ``t`` (oldest at ``head``), with its cumulative beat counts
    in ``b[:, i]``.  Appends and trims make ``HeartRateMonitor``'s deque
    comparisons: append the sample, then drop the oldest while the
    *second* sample is at/before the window horizon.
    """

    def __init__(
        self,
        windows: Sequence[float],
        samples: Sequence[Sequence[Tuple[float, float]]],
        dt: float,
        source: Optional["_HRMRings"] = None,
        rows: Sequence[int] = (),
        src: Sequence[int] = (),
    ):
        """Rings for one row per ``windows`` entry.

        Row ``i`` takes window ``windows[i]`` and a plain monitor's
        ``samples[i]`` (oldest first), except that rows ``rows`` take rows
        ``src`` of ``source``, window included, in one array gather (their
        ``samples`` entries must be empty).  Every row's times must be a
        suffix of the longest row's, which become the clock.
        """
        n = len(windows)
        window = np.asarray(windows, dtype=float)
        count = np.fromiter(map(len, samples), dtype=np.intp, count=n)
        plain = [
            (i, np.asarray(samples[i], dtype=float))
            for i in np.flatnonzero(count).tolist()
        ]
        rows = np.asarray(rows, dtype=np.intp)
        src = np.asarray(src, dtype=np.intp)
        moved_times = np.zeros(0)
        if rows.size:
            window[rows] = source.window[src]
            count[rows] = source.count[src]
            slots = source._slots(int(count[rows].max()))
            moved_times = source.t[slots]
        # The clock is the longest row's times, and every row must hold
        # its newest end.
        times = [moved_times] + [pairs[:, 0] for _i, pairs in plain]
        clock = max(times, key=len)
        size = clock.size
        for row_times in times:
            if not np.array_equal(row_times, clock[size - row_times.size :]):
                raise ValueError("heart-rate samples do not share one tick clock")
        # After a trim a row holds one sample at/before its horizon and
        # the rest inside its window: at most floor(window / dt) + 2 at
        # tick spacing dt, and the clock holds the longest row.  So
        # ceil(window / dt) + 4 slots take that, the append before its
        # trim and the clock's rounding.  A seeded clock sampled at a
        # finer dt needs its own length + 2; a ring that still fills
        # raises.
        cap = size + 2
        if n:
            cap = max(cap, int(math.ceil(float(window.max()) / dt)) + 4)
        self.n = n
        self.cap = cap
        self.window = window
        self.count = count
        self.t = np.zeros(cap)
        self.t[:size] = clock
        self.head = 0
        self.size = size
        self.b = np.zeros((cap, n))
        if rows.size:
            self.b[size - slots.size : size, rows] = source.b[np.ix_(slots, src)]
        for i, pairs in plain:
            self.b[size - len(pairs) : size, i] = pairs[:, 1]
        self.rows = np.arange(n, dtype=np.intp)
        #: Mutation counter; heart-rate caches key off it.
        self.stamp = 0

    def _slots(self, k: int) -> "np.ndarray":
        """Ring slots of the clock's newest ``k`` times, oldest first."""
        return (self.head + self.size - k + np.arange(k)) % self.cap

    def permute(self, perm: "np.ndarray", lo: int, hi: int) -> None:
        """Reorder the rows in place: row ``i`` takes old row ``perm[i]``.

        ``perm`` must be the identity outside ``lo:hi``, so each per-row
        array takes one gather over that window.  The clock belongs to no
        row and stays as it is.
        """
        src = perm[lo:hi]
        self.window[lo:hi] = self.window[src]
        self.count[lo:hi] = self.count[src]
        self.b[:, lo:hi] = self.b[:, src]
        self.stamp += 1

    def append(
        self, t_new: float, beats: "np.ndarray", active: Optional["np.ndarray"] = None
    ) -> None:
        """``record(t_new, beats[i])`` on every row, or on the ``active`` rows.

        A row the mask skips must hold no samples (a task placed before
        its start), because they would stop being the clock's newest.
        """
        count = self.count
        if active is not None and count[~active].any():
            raise ValueError("a skipped heart-rate row holds samples")
        cap = self.cap
        if self.size == cap:
            raise RuntimeError("heart-rate ring full")
        pos = (self.head + self.size) % cap
        t = self.t
        t[pos] = t_new
        if active is None:
            self.b[pos] = beats
            count += 1
        else:
            np.copyto(self.b[pos], beats, where=active)
            count += active
        # The deque's trim, every row at once: a row's second sample sits
        # at clock slot pos + 2 - count.
        horizon = t_new - self.window
        while True:
            drop = (count >= 2) & (t[(pos + 2 - count) % cap] <= horizon)
            if not drop.any():
                break
            count -= drop
        self.size = int(count.max())
        self.head = (pos + 1 - self.size) % cap
        self.stamp += 1

    def rate_all(self) -> "np.ndarray":
        """``HeartRateMonitor.heart_rate`` for every row (vectorized)."""
        count = self.count
        last = (self.head + self.size - 1) % self.cap
        first = (last + 1 - count) % self.cap
        t0 = self.t[first]
        t1 = self.t[last]
        ok = (count >= 2) & (t1 > t0)
        b0 = self.b[first, self.rows]
        b1 = self.b[last]
        return np.where(ok, (b1 - b0) / np.where(ok, t1 - t0, 1.0), 0.0)

    def rate_one(self, i: int) -> float:
        c = int(self.count[i])
        if c < 2:
            return 0.0
        last = (self.head + self.size - 1) % self.cap
        first = (last + 1 - c) % self.cap
        t0 = self.t[first]
        t1 = self.t[last]
        if t1 <= t0:
            return 0.0
        return float((self.b[last, i] - self.b[first, i]) / (t1 - t0))

    def withhold_last_one(self, i: int, total_beats: float) -> None:
        """``HeartRateMonitor.withhold_last`` against ring row ``i``."""
        self.b[(self.head + self.size - 1) % self.cap, i] = total_beats
        self.stamp += 1

    def reset_one(self, i: int) -> None:
        self.count[i] = 0
        self.stamp += 1

    def samples_of(self, i: int) -> deque:
        idx = self._slots(int(self.count[i]))
        return deque(zip(self.t[idx].tolist(), self.b[idx, i].tolist()))


class ColumnarHRM:
    """Drop-in ``HeartRateMonitor`` view over one ring row.

    A view lives only inside its epoch: a same-population rebuild permutes
    the rings in place and re-points the views whose row moved, and the
    seed of any other epoch gathers the samples of the views it keeps
    into new rings and hands every task that leaves a plain monitor
    (:meth:`plain`).  The engine records through the rings, never through
    a view.
    """

    def __init__(self, rings: _HRMRings, row: int):
        self._rings = rings
        self._row = row

    @property
    def window_s(self) -> float:
        return float(self._rings.window[self._row])

    def withhold_last(self, total_beats: float) -> None:
        self._rings.withhold_last_one(self._row, total_beats)

    def heart_rate(self) -> float:
        return self._rings.rate_one(self._row)

    def reset(self) -> None:
        self._rings.reset_one(self._row)

    @property
    def _samples(self) -> deque:
        return self._rings.samples_of(self._row)

    def plain(self) -> HeartRateMonitor:
        """A plain monitor holding this view's window and samples."""
        hrm = HeartRateMonitor(window_s=self.window_s)
        hrm._samples = self._samples
        return hrm


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
        "load",
        "has_load",
        "rings",
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
        "grant_rows",
        "max_start",
        "min_end",
        "fz",
        "fz_max",
        "cost_const",
        "dem_const",
        "all_has_load",
        "g_key",
        "g_grants",
        "g_terms",
    )

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
        """The rows' grant inputs, ``max(0, .)``-clamped as ``compute_grants`` reads them.

        Built from the engine's dicts on an epoch's first tick and after
        an edit other than a market round's ``set_allocations``.
        """
        n = self.n
        self.alloc_has = np.fromiter(
            (t in allocations for t in self.tasks), dtype=bool, count=n
        )
        alloc = np.fromiter(
            (allocations.get(t, 0.0) for t in self.tasks), dtype=float, count=n
        )
        weight = np.fromiter(
            (weights.get(t, 1.0) for t in self.tasks), dtype=float, count=n
        )
        self.alloc_val = np.where(alloc > 0.0, alloc, 0.0)
        self.weight_val = np.where(weight > 0.0, weight, 0.0)
        self.g_key = None

    def rows_of(self, tasks: Sequence[Task]) -> Optional["np.ndarray"]:
        """The rows of ``tasks``, or ``None`` if one is off the epoch.

        One ``rowmap`` walk per task sequence object: a market round
        hands over the same sequence while its rows keep their order.
        """
        cached = self.grant_rows
        if cached is not None and cached[0] is tasks:
            return cached[1]
        try:
            rows = np.fromiter(
                map(self.rowmap.__getitem__, tasks), dtype=np.intp, count=len(tasks)
            )
        except KeyError:
            return None
        self.grant_rows = (tasks, rows)
        return rows

    def ordered_rows(self, active: "np.ndarray", frozen: "np.ndarray") -> List[int]:
        """Active store rows in scalar dispatch-update order.

        The object engine updates the load dict runnable-first then
        frozen *per core*; dict insertion order is observable through
        checkpoint snapshots, so mirror it exactly.  Rows are sorted by
        core already, so a stable sort on (core, frozen) gives that order.
        """
        rows = np.flatnonzero(active)
        key = self.core_ix[rows] * 2 + frozen[rows]
        return rows[np.argsort(key, kind="stable")].tolist()


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
        self._hr_cache: Optional["np.ndarray"] = None
        self._hr_stamp = -1
        # (tasks list object, epoch, row indices) for gather_demand_inputs;
        # callers reuse the same list while the market membership is
        # stable, so the rowmap walk happens once per (membership, epoch).
        self._gather_cache: Optional[tuple] = None
        # Tasks migrated since the epoch was built.  Migration is the only
        # writer of ``frozen_until`` between rebuilds (snapshot restore
        # drops the epoch), so the epoch's ``fz`` column follows it.
        self._migrated: List[Task] = []
        #: Debug check for tests: poison the hot view attributes between
        #: barriers so an unsynchronised read raises.  Read every tick;
        #: it changes no value a barrier materialises.
        self.poison = False
        #: Barriers that actually flushed state (observability for tests).
        self.sync_count: int = 0
        # Per-column dirty epochs: tick stamp of the last unflushed column
        # write vs. the stamp the object view was last materialised at.
        cols = ("beats", "work", "sup", "con", "load")
        self._col_dirty: Dict[str, int] = {c: 0 for c in cols}
        self._col_synced: Dict[str, int] = {c: 0 for c in cols}
        self._view_dirty = False  # fast no-op check for sync()
        self._poisoned = False

    # -- population changes -------------------------------------------------------
    def _population_changed(self) -> None:
        # Flush the view first: the next epoch re-seeds from the objects.
        self.sync()
        super()._population_changed()
        self._epoch = None
        self._hr_cache = None
        self._hr_stamp = -1
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
                for t, ts, tc in zip(tasks, sl, cl):
                    t.last_supply_pus = ts
                    t.last_consumed_pus = tc
                synced["sup"] = dirty["sup"]
                synced["con"] = dirty["con"]
            if dirty["load"] > synced["load"]:
                tracked = self.load_tracker._load
                for t, v in zip(tasks, ep.load.tolist()):
                    if t in tracked:
                        tracked[t] = v
                synced["load"] = dirty["load"]
        self._view_dirty = False
        self._poisoned = False
        self.sync_count += 1

    def migrate(self, task: Task, destination):
        record = super().migrate(task, destination)
        if not record.failed:
            self._migrated.append(task)
        return record

    def _grant_inputs_changed(self) -> None:
        """Rebuild the epoch's grant inputs from the dicts on the next tick."""
        if self._epoch is not None:
            self._epoch.alloc_has = None

    def set_allocation(self, task: Task, pus: float) -> None:
        self._grant_inputs_changed()
        super().set_allocation(task, pus)

    def set_allocations(self, tasks: Sequence[Task], pus: "np.ndarray | array") -> None:
        """The round's grants, also scattered into the epoch's grant inputs.

        The clamp is the object loop's, as one array expression.  The rows
        come from the epoch's index of ``tasks``; an epoch whose inputs
        are not built yet, or that lacks one of ``tasks``, builds them
        from the dicts on its next tick instead.
        """
        pus = np.asarray(pus)
        clamped = np.where(pus > 0.0, pus, 0.0)
        self._allocations.update(zip(tasks, clamped.tolist()))
        ep = self._epoch
        if ep is None or ep.alloc_has is None:
            return
        rows = ep.rows_of(tasks)
        if rows is None:
            ep.alloc_has = None
            return
        ep.alloc_val[rows] = clamped
        ep.alloc_has[rows] = True
        ep.g_key = None

    def clear_allocation(self, task: Task) -> None:
        self._grant_inputs_changed()
        super().clear_allocation(task)

    def clear_allocations(self) -> None:
        self._grant_inputs_changed()
        super().clear_allocations()

    def set_weight(self, task: Task, weight: float) -> None:
        self._grant_inputs_changed()
        super().set_weight(task, weight)

    # -- columnar observability ---------------------------------------------------
    def _heart_rates(self) -> "np.ndarray":
        """Per-store-row heart rates, cached per ring mutation stamp."""
        ep = self._epoch
        rings = ep.rings
        if self._hr_cache is not None and self._hr_stamp == rings.stamp:
            return self._hr_cache
        hr = rings.rate_all()
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
            ridx = cache[2]
        else:
            rowmap = ep.rowmap
            rows = []
            for t in tasks:
                r = rowmap.get(t)
                if r is None:
                    return None
                rows.append(r)
            ridx = np.asarray(rows, dtype=np.intp)
            self._gather_cache = (tasks, ep, ridx)
        return self._heart_rates()[ridx], ep.con[ridx], ep.sup[ridx]

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
        if tasks is self._tasks and ep.covers_all:
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
        placement = self.placement
        dt = self.config.dt
        ep = _Epoch()
        ep.version = placement.version
        ep.dt = dt
        # Rows follow the cores in chip order and each core's tasks in
        # placement order: the per-core folds and the load dict's
        # insertion order depend on it.
        tasks: List[Task] = []
        counts: List[int] = []
        cores = []
        cluster_ix: List[int] = []
        clusters = list(self.chip.clusters)
        for j, cluster in enumerate(clusters):
            for core in cluster.cores:
                on_core = placement.iter_tasks_on_core(core)
                cores.append(core)
                cluster_ix.append(j)
                counts.append(len(on_core))
                tasks.extend(on_core)
        n = len(tasks)
        ep.tasks = tasks
        ep.rowmap = dict(zip(tasks, range(n)))
        ep.cores = cores
        ep.ncores = len(cores)
        ep.core_ix = np.repeat(np.arange(len(cores), dtype=np.intp), counts)
        ep.clusters = clusters
        ep.cluster_ix = np.asarray(cluster_ix, dtype=np.intp)
        ep.n = n

        # A placement change that keeps the population (one LBT move, or
        # several) only reorders the rows.  A population change clears
        # ``_epoch`` and forces the seed-from-objects walk.
        old = self._epoch
        if old is not None and old.n == n and old.dt == dt and n:
            try:
                perm = np.fromiter(
                    map(old.rowmap.__getitem__, tasks), dtype=np.intp, count=n
                )
            except KeyError:
                pass
            else:
                return self._permute_epoch(ep, old, perm)
        return self._seed_epoch(ep)

    def _permute_epoch(self, ep: _Epoch, old: _Epoch, perm: "np.ndarray") -> _Epoch:
        """The outgoing epoch's tasks in new rows: row ``i`` was ``perm[i]``.

        The outgoing columns are authoritative, so every column is a row
        gather from them and keeps its dirty stamp: no barrier runs.  The
        heart-rate rings are permuted in place, and only the monitor views
        whose row moved are re-pointed.  Every task's monitor is a view
        on the outgoing rings at its old row, because a monitor is only
        replaced by a reseed.
        """
        n = ep.n
        tasks = ep.tasks
        cores = ep.cores
        for name in _ROW_COLUMNS:
            setattr(ep, name, getattr(old, name)[perm])
        # The grant inputs are per-task too: carried over while current.
        if old.alloc_has is not None:
            ep.alloc_has = old.alloc_has[perm]
            ep.alloc_val = old.alloc_val[perm]
            ep.weight_val = old.weight_val[perm]
        else:
            ep.alloc_has = ep.alloc_val = ep.weight_val = None
        # cost_pu_s_per_beat depends on the hosting core type only:
        # recompute just the rows whose type changed (normally the one
        # migrated task).
        type_ix: Dict[int, int] = {}

        def _tix(ct: object) -> int:
            v = type_ix.get(id(ct))
            if v is None:
                v = type_ix[id(ct)] = len(type_ix)
            return v

        old_ct = np.asarray([_tix(c.cluster.core_type) for c in old.cores], dtype=np.intp)
        new_ct = np.asarray([_tix(c.cluster.core_type) for c in cores], dtype=np.intp)
        core_ix = ep.core_ix
        retype = np.nonzero(old_ct[old.core_ix[perm]] != new_ct[core_ix])[0]
        for i in retype.tolist():
            ep.cost_base[i] = tasks[i].profile.cost_pu_s_per_beat(
                cores[core_ix[i]].cluster.core_type, 1.0
            )
        # Migrations are the only ``frozen_until`` writers between
        # rebuilds (snapshot restore reseeds).
        rowmap = ep.rowmap
        for t in self._migrated:
            ep.fz[rowmap[t]] = t.frozen_until
        self._summarise_rows(ep)

        inv = np.empty(n, dtype=np.intp)
        inv[perm] = np.arange(n, dtype=np.intp)
        self._remap_phase_groups(ep, old, perm, inv, n)
        ep.mult_buf = np.empty(n, dtype=float)

        rings = old.rings
        moved = np.flatnonzero(perm != np.arange(n, dtype=np.intp))
        if moved.size:
            rings.permute(perm, int(moved[0]), int(moved[-1]) + 1)
            for i in moved.tolist():
                tasks[i].hrm._row = i
        ep.rings = rings

        # The population is unchanged (add_task drops the epoch), so
        # coverage carries over and the metrics permutation composes
        # with the row remap:
        # perm'[i] = rowmap'[tasks_pop[i]] = inv[old.perm[i]].
        ep.covers_all = old.covers_all
        if ep.covers_all:
            ep.perm = inv[old.perm]
            ep.perm_names = old.perm_names
            self._set_metrics_bounds(ep)
        else:
            self._clear_metrics_perm(ep)
        cache = self._gather_cache
        if cache is not None and cache[1] is old:
            self._gather_cache = (cache[0], ep, inv[cache[2]])
        return self._seal_epoch(ep, clean=False)

    def _seed_epoch(self, ep: _Epoch) -> _Epoch:
        """Seed every column of ``ep`` from the object view."""
        # Flush whatever the outgoing epoch still holds first.
        self.sync()
        n = ep.n
        tasks = ep.tasks
        cores = ep.cores
        core_ix = ep.core_ix.tolist()
        ep.start = np.fromiter((t.start_time for t in tasks), dtype=float, count=n)
        ep.end = np.fromiter(
            (
                t.start_time + t.duration if t.duration is not None else math.inf
                for t in tasks
            ),
            dtype=float,
            count=n,
        )
        ep.tgt_hr = np.fromiter((t.target_hr for t in tasks), dtype=float, count=n)
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
        # Mutable state columns, initialised from the attributes the
        # barrier above just made current.
        ep.beats = np.fromiter((t.total_beats for t in tasks), dtype=float, count=n)
        ep.work = np.fromiter((t.total_work_pu_s for t in tasks), dtype=float, count=n)
        ep.sup = np.fromiter((t.last_supply_pus for t in tasks), dtype=float, count=n)
        ep.con = np.fromiter((t.last_consumed_pus for t in tasks), dtype=float, count=n)
        tracked = self.load_tracker._load
        ep.load = np.fromiter((tracked.get(t, 0.0) for t in tasks), dtype=float, count=n)
        ep.has_load = np.fromiter((t in tracked for t in tasks), dtype=bool, count=n)
        ep.fz = np.fromiter((t.frozen_until for t in tasks), dtype=float, count=n)
        ep.alloc_has = ep.alloc_val = ep.weight_val = None
        self._summarise_rows(ep)
        self._group_phases(ep)

        # Heart-rate monitors.  Views live only inside their epoch: every
        # task that leaves it takes a plain monitor holding its samples,
        # so the views among this epoch's tasks name one ring, and their
        # rows move over in one array gather.  Plain monitors (new tasks,
        # restored ones, tasks coming back) hand over their deques, as
        # does a view of any other ring (a task from another simulation).
        rowmap = ep.rowmap
        for t in self.tasks:
            hrm = t.hrm
            if type(hrm) is ColumnarHRM and t not in rowmap:
                t.hrm = hrm.plain()
        windows: List[float] = [1.0] * n
        samples: List[Sequence[Tuple[float, float]]] = [()] * n
        source: Optional[_HRMRings] = None
        rows: List[int] = []
        src: List[int] = []
        for i, t in enumerate(tasks):
            hrm = t.hrm
            if type(hrm) is ColumnarHRM and (source is None or hrm._rings is source):
                source = hrm._rings
                rows.append(i)
                src.append(hrm._row)
            else:
                windows[i] = hrm.window_s
                samples[i] = hrm._samples
        ep.rings = _HRMRings(windows, samples, ep.dt, source, rows, src)
        for i, t in enumerate(tasks):
            t.hrm = ColumnarHRM(ep.rings, i)

        # Metrics permutation: store rows in population order, usable
        # whenever the tick's active tuple is the population itself.
        ep.covers_all = n == len(self.tasks) and all(t in ep.rowmap for t in self.tasks)
        if ep.covers_all:
            ep.perm = np.asarray([ep.rowmap[t] for t in self.tasks], dtype=np.intp)
            ep.perm_names = tuple(t.name for t in self.tasks)
            self._set_metrics_bounds(ep)
        else:
            self._clear_metrics_perm(ep)
        # The gather cache indexes the outgoing epoch's rows: dropping it
        # lets that epoch and its ring go.
        self._gather_cache = None
        return self._seal_epoch(ep, clean=True)

    @staticmethod
    def _summarise_rows(ep: _Epoch) -> None:
        """Per-epoch scalars the dispatch gates read off the row columns."""
        n = ep.n
        ep.any_limit = bool(ep.has_limit.any())
        ep.max_start = float(ep.start.max()) if n else 0.0
        ep.min_end = float(ep.end.min()) if n else math.inf
        ep.fz_max = float(ep.fz.max()) if n else 0.0

    @staticmethod
    def _set_metrics_bounds(ep: _Epoch) -> None:
        ep.perm_identity = bool((ep.perm == np.arange(ep.n, dtype=np.intp)).all())
        ep.perm_lo = ep.lo if ep.perm_identity else ep.lo[ep.perm]
        ep.perm_hi = ep.hi if ep.perm_identity else ep.hi[ep.perm]

    @staticmethod
    def _clear_metrics_perm(ep: _Epoch) -> None:
        ep.perm = None
        ep.perm_names = None
        ep.perm_identity = False
        ep.perm_lo = None
        ep.perm_hi = None

    @staticmethod
    def _group_phases(ep: _Epoch) -> None:
        """Group rows by phase-trace type for vector evaluation.

        Anything else (piecewise, custom) evaluates per task.
        """
        n = ep.n
        const_rows: List[int] = []
        const_vals: List[float] = []
        sin_rows: List[int] = []
        sin_p: List[Tuple[float, float, float, float]] = []
        sqw_rows: List[int] = []
        sqw_p: List[Tuple[float, float, float, float, float, float]] = []
        ph_py: List[Tuple[int, Task]] = []
        for i, t in enumerate(ep.tasks):
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

    def _seal_epoch(self, ep: _Epoch, clean: bool) -> _Epoch:
        """Reset the lazily-derived members and install the epoch.

        ``clean``: the columns were seeded from the object view, so no
        column is ahead of it.  A permuted epoch keeps the dirty stamps.
        """
        ep.all_has_load = ep.n > 0 and bool(ep.has_load.all())
        ep.grant_rows = None
        ep.g_key = None
        ep.g_grants = None
        ep.g_terms = None
        self._hr_cache = None
        self._hr_stamp = -1
        if clean:
            self._col_synced.update(self._col_dirty)
            self._view_dirty = False
        self._migrated.clear()
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
        if ep.n == 0:
            for core in ep.cores:
                core.utilization = 0.0
            active = self.active_tasks()
            if active:  # placed_count() == 0 != len(active)
                for task in active:
                    task.idle_tick(now, dt)
            return

        # Row masks only on a tick where some mapped row does not run: it
        # has not started, it has ended, or a migration froze it.
        active = frozen = runnable = None
        skips = False
        if not (ep.max_start <= now < ep.min_end and ep.fz_max <= now):
            active = (now >= ep.start) & (now < ep.end)
            frozen = active & (ep.fz > now)
            runnable = active & ~frozen
            skips = not bool(active.all())
        rows = True if active is None else active
        # The object view waits for the barrier unless the tick inserts
        # load-dict keys (their order is part of the checkpoint bytes) or
        # skips a mapped row.  Then the barrier first flushes what was
        # deferred -- load values of skipped rows included -- and every
        # attribute is written through, as the object loop does.
        defer = ep.all_has_load and not skips
        if not defer:
            self.sync()

        terms, fresh = self._tick_terms(ep, now, dt, runnable)
        grants, cons, beats_inc, work_inc, util, inst, load_in = terms
        ep.beats += beats_inc
        ep.work += work_inc
        if fresh:
            np.copyto(ep.sup, grants, where=rows)
            np.copyto(ep.con, cons, where=rows)
        for core, u in zip(ep.cores, util):
            core.utilization = u

        # LoadTracker.update: a row's first fold starts from its own
        # instantaneous load.
        decay = self.load_tracker.decay_for(dt)
        load = ep.load
        prev = load if ep.all_has_load else np.where(ep.has_load, load, inst)
        np.add(decay * prev, load_in, out=load, where=rows)
        if not ep.all_has_load:
            ep.has_load |= rows
            ep.all_has_load = bool(ep.has_load.all())

        # Heartbeats: runnable and frozen rows record; skipped rows do not.
        ep.rings.append(now + dt, ep.beats, active)

        tasks = ep.tasks
        if defer:
            # Stamp with tick_index + 1: tick_index is 0-based and the
            # synced stamps start at 0, so tick 0's writes must land
            # strictly above them.
            dirty = self._col_dirty
            ti = self.tick_index + 1
            dirty["beats"] = dirty["work"] = dirty["load"] = ti
            if fresh:
                dirty["sup"] = dirty["con"] = ti
            self._view_dirty = True
            self._poison_view(tasks)
        else:
            if active is None:
                self.load_tracker.update_many(zip(tasks, load.tolist()))
            else:
                order = ep.ordered_rows(active, frozen)
                self.load_tracker.update_many(
                    (tasks[i], v) for i, v in zip(order, load[order].tolist())
                )
            bl = ep.beats.tolist()
            wl = ep.work.tolist()
            sl = ep.sup.tolist()
            cl = ep.con.tolist()
            for t, tb, tw, ts, tc in zip(tasks, bl, wl, sl, cl):
                t.total_beats = tb
                t.total_work_pu_s = tw
                t.last_supply_pus = ts
                t.last_consumed_pus = tc

        # Active tasks not mapped to any core idle in place (same scan
        # condition as the object engine).
        active_list = self.active_tasks()
        if skips or placement.placed_count() != len(active_list):
            for task in active_list:
                if not placement.is_placed(task):
                    task.idle_tick(now, dt)

    def _tick_terms(
        self, ep: _Epoch, now: float, dt: float, runnable: Optional["np.ndarray"]
    ) -> Tuple[tuple, bool]:
        """The tick's per-row dispatch terms, and whether they are new.

        The terms are the grants, the consumed supply, the beat and work
        increments, the per-core utilisation, and the instantaneous load
        with its EWMA input: ``Task.consume`` and ``LoadTracker.update``
        for the ``runnable`` rows (every row when ``None``), and zero
        supply for every other row.  While every row runs, the epoch
        keeps the grants until the supplies, allocations or weights
        change, and the rest while the phase multipliers are constant too.
        """
        if ep.alloc_has is None:
            ep.refresh_grant_inputs(self._allocations, self._weights)
        key = tuple(cl.supply_pus for cl in ep.clusters)
        if runnable is None and ep.g_key == key:
            if ep.dem_const is not None:
                return ep.g_terms, False
            sup, grants = ep.g_grants
        else:
            sup = np.asarray(key, dtype=float)[ep.cluster_ix]
            grants = compute_grants_batch(
                ep.core_ix, ep.ncores, sup, ep.alloc_val, ep.alloc_has, ep.weight_val, runnable
            )
            ep.g_key = key if runnable is None else None
            ep.g_grants = (sup, grants)
        if ep.dem_const is not None:
            demand, cost = ep.dem_const, ep.cost_const
        else:
            cost = ep.cost_base * ep.multipliers(now)
            demand = ep.tgt_hr * cost
        cons = grants
        if ep.any_limit:
            cons = np.where(ep.has_limit, np.minimum(grants, ep.limit * demand), grants)
        work = cons * dt
        consumed = np.bincount(ep.core_ix, weights=cons, minlength=ep.ncores)
        util = np.where(
            sup > 0.0, np.minimum(1.0, consumed / np.where(sup > 0.0, sup, 1.0)), 0.0
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
        load_in = (1.0 - self.load_tracker.decay_for(dt)) * inst
        ep.g_terms = (grants, cons, work / cost, work, util, inst, load_in)
        return ep.g_terms, True

    def _poison_view(self, tasks: List[Task]) -> None:
        """Under :attr:`poison`, trap reads of the attributes a barrier owes."""
        if self.poison and not self._poisoned:
            pb, pw, ps, pc = _POISONS
            for t in tasks:
                t.total_beats = pb
                t.total_work_pu_s = pw
                t.last_supply_pus = ps
                t.last_consumed_pus = pc
            self._poisoned = True
