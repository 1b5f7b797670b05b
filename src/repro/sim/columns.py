"""Columnar (structure-of-arrays) storage and tick kernel for the machine.

Two pieces live here:

* :class:`CounterColumns` — the authoritative storage for every open
  kernel counter's hot state (accumulated value, ``time_enabled``,
  ``time_running``, enabled bit) as preallocated numpy columns. A
  :class:`~repro.sim.counters.KernelCounter` is a thin handle into one
  slot; ``read()`` paths serve straight from the accumulator columns.
* :class:`ColumnKernel` — the one tick engine: every
  :class:`~repro.sim.machine.SimMachine` advance (``run_for``,
  ``run_until``, ``run_ticks``) enters :meth:`ColumnKernel.run`. It
  mirrors the per-thread scheduling state (tid, vruntime, runnable, duty,
  idle-sync arrears) into parallel arrays so one fused pass per tick
  replaces a sorted() call, a runnable list comprehension, and
  per-counter dict walks.

Bitwise-equivalence contract: the kernel must reproduce the scalar
reference stepper (``repro.verify.reference``) exactly, float by float
and RNG draw by RNG draw. The vector code therefore only uses elementwise
float64 operations (IEEE-754 correctly rounded, hence identical to the
scalar Python arithmetic they replace), never reductions (which
reassociate), and keeps every RNG draw — per-process CPI noise,
duty-cycle gates, sampling loss — on a scalar code path in the
reference's order. Counter sets the vector landing cannot reproduce
exactly (sampling counters, multiplexed or partially disabled sets) take
the same delta vector through :meth:`CounterTable.accrue`, so correctness
never depends on which landing ran.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import SimulationError
from repro.sim.events import EVENT_CODE, N_EVENT_CODES, Event
from repro.sim.process import TaskState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (machine -> columns)
    from repro.sim.machine import SimMachine
    from repro.sim.process import SimThread


class CounterColumns:
    """Structure-of-arrays storage for kernel counter hot state.

    Slots are allocated/freed as counters open and close; the arrays grow
    geometrically and never shrink. ``version`` increments on any change
    to the slot population or enabled bits, invalidating the per-tid slot
    caches kept by :class:`~repro.sim.counters.CounterTable`.
    """

    __slots__ = (
        "capacity",
        "value",
        "time_enabled",
        "time_running",
        "enabled",
        "in_use",
        "version",
        "_free",
    )

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.value = np.zeros(capacity)
        self.time_enabled = np.zeros(capacity)
        self.time_running = np.zeros(capacity)
        self.enabled = np.zeros(capacity, dtype=bool)
        self.in_use = np.zeros(capacity, dtype=bool)
        self.version = 0
        # Stack of free slots; popping yields ascending slot numbers.
        self._free = list(range(capacity - 1, -1, -1))

    def _grow(self) -> None:
        old = self.capacity
        new = old * 2
        for name in ("value", "time_enabled", "time_running"):
            arr = np.zeros(new)
            arr[:old] = getattr(self, name)
            setattr(self, name, arr)
        for name in ("enabled", "in_use"):
            arr = np.zeros(new, dtype=bool)
            arr[:old] = getattr(self, name)
            setattr(self, name, arr)
        self._free.extend(range(new - 1, old - 1, -1))
        self.capacity = new

    def alloc(self) -> int:
        """Claim a zeroed slot (enabled, as freshly opened counters are)."""
        if not self._free:
            self._grow()
        slot = self._free.pop()
        self.value[slot] = 0.0
        self.time_enabled[slot] = 0.0
        self.time_running[slot] = 0.0
        self.enabled[slot] = True
        self.in_use[slot] = True
        self.version += 1
        return slot

    def free(self, slot: int) -> None:
        """Release a slot for reuse."""
        if not self.in_use[slot]:
            raise SimulationError(f"slot {slot} is not allocated")
        self.in_use[slot] = False
        self.enabled[slot] = False
        self._free.append(slot)
        self.version += 1

    def live_slots(self) -> int:
        """Number of allocated slots (for stats and leak tests)."""
        return int(self.in_use.sum())


#: Dense code of ``Event.CYCLES`` — the one delta the reference stepper
#: computes with the per-tick noised CPI rather than the published
#: per-instruction rate, so the kernel overwrites this vector lane after
#: accumulating.
_CYCLES_CODE = EVENT_CODE[Event.CYCLES]

#: Events in dense-code order, for handing a delta vector to
#: :meth:`CounterTable.accrue` as an event mapping.
_EVENTS = tuple(EVENT_CODE)


class ColumnKernel:
    """The machine's tick engine: one fused pass advances every scheduled task.

    Every :class:`SimMachine` advance enters :meth:`run`. Per-thread
    scheduling state is mirrored into parallel arrays whose slot order is
    the spawn (``machine._threads`` insertion) order of the threads still
    alive. The columns are maintained incrementally: at each batch start
    and timer boundary — the only points where the population can change —
    dead threads are dropped and new spawns appended, both in insertion
    order, and the kept slots re-read their scheduling state from the
    thread objects.

    Equivalence with the reference stepper (``repro.verify.reference``),
    piece by piece:

    * runnable scan — the reference's list comprehension over
      ``_threads.values()`` becomes a boolean column maintained at the
      points where state changes (refresh, slice, reap); duty-cycle RNG
      draws stay scalar, in slot (= insertion) order, gated on the same
      runnable test. Dropping dead slots keeps that relative order.
    * dispatch — :meth:`Scheduler.dispatch_columns` ranks candidates with
      one ``np.lexsort`` over the (vruntime, tid) columns; stable sort over
      unique tids reproduces ``sorted(key=(vruntime, tid))`` exactly, and
      placement runs the scheduler's one placement walk.
    * idle arrears — per-task "ticks already accounted" lives in an int64
      column; folds happen via :meth:`CounterTable.advance_idle` right
      before a task runs, before timer callbacks, and at batch end.
    * slice accrual — the per-segment event deltas accumulate in a dense
      float64 vector via elementwise ops (bitwise equal to the reference's
      dict walk). For *simple* counter sets (all enabled, none sampling,
      fits the PMU) the vector lands on the counter columns with one
      fancy-indexed add; any other set takes it through
      :meth:`CounterTable.accrue`, which owns multiplexing and sampling.
    """

    __slots__ = (
        "machine",
        "threads",
        "tids",
        "vruntime",
        "runnable",
        "alive",
        "synced",
        "slot_of",
        "duty_slots",
        "size",
        "fast_slices",
        "fallback_slices",
        "_seen",
        "_dvec",
        "_seg",
    )

    def __init__(self, machine: SimMachine) -> None:
        self.machine = machine
        self.threads: list[SimThread] = []
        self.tids = np.empty(0, dtype=np.int64)
        self.vruntime = np.empty(0)
        self.runnable = np.empty(0, dtype=bool)
        self.alive = np.empty(0, dtype=bool)
        self.synced = np.empty(0, dtype=np.int64)
        self.slot_of: dict[int, int] = {}
        self.duty_slots: list[int] = []
        self.size = 0
        self.fast_slices = 0
        self.fallback_slices = 0
        #: How many of ``machine._threads`` (insertion order) are ingested.
        self._seen = 0
        self._dvec = np.zeros(N_EVENT_CODES)
        self._seg = np.empty(N_EVENT_CODES)

    # -- column maintenance -------------------------------------------------
    def _refresh(self, new_synced: int) -> None:
        """Bring the columns up to date with the machine's population.

        Drops threads that died since the last refresh, appends threads
        spawned since then (arrears baseline ``new_synced``: the current
        tick index for a timer-callback spawn, matching the reference's
        per-tick accrual from the tick after the spawn), and re-reads the
        kept threads' vruntime and state.
        """
        m = self.machine
        threads = self.threads
        kept = [i for i, t in enumerate(threads) if t.state is not TaskState.DEAD]
        changed = len(kept) != len(threads)
        if changed:
            index = np.array(kept, dtype=np.intp)
            threads = [threads[i] for i in kept]
            self.tids = self.tids[index]
            self.synced = self.synced[index]
        population = m._threads
        if len(population) > self._seen:
            spawned = list(itertools.islice(population.values(), self._seen, None))
            self._seen = len(population)
            threads = threads + spawned
            self.tids = np.concatenate(
                (self.tids, np.array([t.tid for t in spawned], dtype=np.int64))
            )
            self.synced = np.concatenate(
                (self.synced, np.full(len(spawned), new_synced, dtype=np.int64))
            )
            changed = True
        n = len(threads)
        if changed:
            self.threads = threads
            self.slot_of = {t.tid: i for i, t in enumerate(threads)}
            self.duty_slots = [
                i for i, t in enumerate(threads) if t.duty_rng is not None
            ]
            self.size = n
            # Every kept thread is alive; a reap since the last refresh
            # would have been dropped above.
            self.alive = np.ones(n, dtype=bool)
        self.vruntime = np.fromiter((t.vruntime for t in threads), float, count=n)
        self.runnable = np.fromiter(
            (t.state is TaskState.RUNNABLE for t in threads), bool, count=n
        )

    def _sync_all(self, upto: int, dt: float) -> None:
        """Fold idle-clock arrears of every live task up to tick ``upto``."""
        synced = self.synced
        behind = np.flatnonzero(self.alive & (synced < upto))
        if behind.size:
            counters = self.machine.counters
            threads = self.threads
            for slot in behind.tolist():
                counters.advance_idle(threads[slot].tid, dt, int(upto - synced[slot]))
            synced[behind] = upto

    # -- the tick loop -------------------------------------------------------
    def run(self, n: int, dt: float) -> None:
        """Advance ``n`` ticks of ``dt`` seconds each.

        The body of every machine advance: ``run_for``/``run_until`` pass
        their whole ticks with ``dt = machine.tick`` and then at most one
        fractional tick (``n = 1``, ``dt`` = the remainder); ``run_ticks``
        passes whole ticks only.
        """
        m = self.machine
        counters = m.counters
        scheduler = m.scheduler
        timers = m._timers
        self._refresh(0)
        # Fresh batch: arrears bookkeeping restarts at zero (every live
        # task's clocks were folded current when the last batch ended).
        self.synced[:] = 0
        for t in range(n):
            if timers and timers[0][0] <= m.now + 1e-12:
                # Callbacks may read counters, kill tasks or spawn new
                # ones: bring every live task's clocks current first.
                self._sync_all(t, dt)
                m._fire_timers()
                self._refresh(t)
            if self.duty_slots:
                run_mask = self.runnable.copy()
                threads = self.threads
                for slot in self.duty_slots:
                    if run_mask[slot]:
                        thread = threads[slot]
                        if not (
                            thread.duty_rng.random()
                            < thread.process.duty_cycle
                        ):
                            run_mask[slot] = False
            else:
                run_mask = self.runnable
            candidates = np.flatnonzero(run_mask)
            dispatch = scheduler.dispatch_columns(
                self.threads, self.tids, self.vruntime, candidates, dt
            )
            assignment = dispatch.assignment
            if assignment:
                located = {
                    thread.tid: thread.current_phase()
                    for thread in assignment.values()
                }
                rates = m._cached_contention(assignment, located)
                slot_of = self.slot_of
                synced = self.synced
                vruntime = self.vruntime
                for pu_id, thread in assignment.items():
                    tid = thread.tid
                    slot = slot_of[tid]
                    vruntime[slot] = thread.vruntime
                    owed = t - synced[slot]
                    if owed > 0:
                        counters.advance_idle(tid, dt, int(owed))
                    self._slice(thread, slot, pu_id, rates.get(tid), dt)
                    synced[slot] = t + 1
            m.now += dt
            if timers and timers[0][0] <= m.now + 1e-12:
                self._sync_all(t + 1, dt)
                m._fire_timers()
                self._refresh(t + 1)
        self._sync_all(n, dt)

    def _slice(
        self,
        thread: SimThread,
        slot: int,
        pu_id: int,
        contended,
        dt: float,
    ) -> None:
        """Retire one scheduled slice and land its events on the counters.

        Float-for-float the reference stepper's slice: same segment loop,
        same RNG draw, same phase-boundary rules. Only the event
        accumulation differs mechanically — a dense vector instead of a
        dict.
        """
        m = self.machine
        located = thread.current_phase()
        if located is None:
            m._reap(thread, dt)
            self.runnable[slot] = False
            self.alive[slot] = False
            return
        tid = thread.tid
        arch = m.arch
        rate_cache = m._rate_cache
        cycle_budget = arch.freq_hz * dt
        consumed_cycles = 0.0
        dvec = self._dvec
        dvec.fill(0.0)
        seg = self._seg
        cycles_total = 0.0
        noise = (
            math.exp(thread.process.rng.normal(0.0, located[0].noise))
            if located[0].noise > 0
            else 1.0
        )
        base = contended
        while cycle_budget > 1e-6 and located is not None:
            phase, remaining = located
            if base is not None and base.miss_profile.accesses:
                rates = base
            else:
                caps = [(s, float(s.size)) for s in arch.cache_levels]
                rates = rate_cache.rates(arch, phase, caps)
            # Jitter only the execution component; penalty cycles are
            # physical latencies and stay put.
            cpi = rates.cpi_exec * noise + (rates.cpi - rates.cpi_exec)
            instructions = min(cycle_budget / cpi, remaining)
            cycles = instructions * cpi
            np.multiply(rates.events_vector(), instructions, out=seg)
            dvec += seg
            cycles_total += cycles
            thread.retired += instructions
            thread.cycles += cycles
            consumed_cycles += cycles
            cycle_budget -= cycles
            located = thread.current_phase()
            if located is None:
                break
            # Crossing into a new phase invalidates the contended rates;
            # recompute solo for the remainder of this tick (one tick of
            # slight inaccuracy at each boundary).
            if remaining <= instructions + 1e-9:
                base = None
        scheduled_dt = dt * min(1.0, consumed_cycles / (arch.freq_hz * dt))
        thread.cpu_time += scheduled_dt
        done = located is None
        # A thread that finishes mid-tick stops its counters' enabled clock
        # at death; otherwise user-space scaling (enabled/running) would
        # extrapolate the dead fraction of the tick as multiplexed time.
        wall_dt = scheduled_dt if done else dt
        # CYCLES accumulates from the noised CPI, not the published rate.
        dvec[_CYCLES_CODE] = cycles_total
        counters = m.counters
        cslots, codes, simple = counters.tid_slots(tid)
        if simple:
            self.fast_slices += 1
            if cslots.size:
                cols = counters.columns
                cols.time_enabled[cslots] += wall_dt
                if scheduled_dt > 0:
                    cols.time_running[cslots] += scheduled_dt
                    cols.value[cslots] += dvec[codes]
        else:
            self.fallback_slices += 1
            counters.accrue(
                tid,
                dict(zip(_EVENTS, dvec.tolist())),
                wall_dt=wall_dt,
                scheduled_dt=scheduled_dt,
                alive=True,
            )
        if contended is not None:
            m._last_rates[tid] = contended
        if done:
            m._reap(thread, dt)
            self.runnable[slot] = False
            self.alive[slot] = False
