"""The simulated machine: topology + caches + memory + scheduler + clock.

:class:`SimMachine` advances a virtual clock in fixed ticks. Each tick it

1. fires any due timed events (job arrivals/kills from experiment scripts),
2. dispatches runnable threads to PUs (CFS-like, affinity-aware),
3. resolves cache-capacity contention between co-scheduled tasks by a
   short fixed-point iteration on access pressures,
4. inflates DRAM latency with aggregate LLC-miss bandwidth,
5. retires instructions per scheduled thread through its workload phases,
   accruing hardware events into the kernel counter table, and
6. reaps threads whose workloads completed.

Every advance — :meth:`~SimMachine.run_for`, :meth:`~SimMachine.run_until`,
:meth:`~SimMachine.run_ticks` — runs those steps in one place, the columnar
:class:`~repro.sim.columns.ColumnKernel`. The scalar one-tick-at-a-time
stepper it must match bit for bit lives in ``repro.verify.reference`` and
only oracles, tests and benchmark baselines run it.

Everything is deterministic: the only randomness is per-process Generators
seeded from the machine seed, used for the per-tick execution-CPI jitter
that gives the paper's plots their characteristic noise.
"""

from __future__ import annotations

import heapq
import itertools
import zlib
from collections.abc import Callable

import numpy as np

from repro.errors import SimulationError
from repro.sim.arch import ArchModel
from repro.sim.cache import CacheHierarchy, CacheInstance
from repro.sim.columns import ColumnKernel
from repro.sim.core import RateCache, SecondMiss, SliceRates
from repro.sim.counters import CounterTable
from repro.sim.cpu_topology import Topology
from repro.sim.process import SimProcess, SimThread, TaskState
from repro.sim.scheduler import Scheduler
from repro.sim.smt import issue_share
from repro.sim.workload import Workload

#: Fixed-point iterations for contention resolution per tick. Two passes
#: are enough because capacities move pressure by at most the smoothing of
#: the power-law curves.
CONTENTION_ITERATIONS = 2


class SimMachine:
    """A complete simulated node.

    Args:
        arch: micro-architecture of every core.
        sockets: socket count.
        cores_per_socket: physical cores per socket.
        memory_bytes: installed DRAM (bounds nothing yet; reported by
            topology rendering).
        tick: scheduler tick in virtual seconds. Coarser ticks run faster;
            tiptop samples every few seconds, so 0.1–1 s ticks lose nothing.
        seed: master seed for all per-process noise.
        memory_bandwidth: peak DRAM bandwidth in bytes/s.
        rate_cache: optional shared :class:`RateCache`. Machines in one
            grid shard pass a common cache so identical (arch, phase,
            capacity) rate computations are deduplicated fleet-wide; the
            memo is exact, so sharing never changes results. The default
            is a private cache with second-miss admission.
    """

    def __init__(
        self,
        arch: ArchModel,
        *,
        sockets: int = 1,
        cores_per_socket: int = 4,
        memory_bytes: int = 6 * 1024**3,
        tick: float = 0.1,
        seed: int = 42,
        memory_bandwidth: float = 25e9,
        rate_cache: RateCache | None = None,
    ) -> None:
        if tick <= 0:
            raise SimulationError(f"tick must be positive, got {tick}")
        from repro.sim.memory import MemorySystem

        self.arch = arch
        self.topology = Topology(arch, sockets, cores_per_socket)
        self.caches = CacheHierarchy(
            arch, self.topology.pu_to_core(), self.topology.core_to_socket()
        )
        self.memory = MemorySystem(
            bandwidth_bytes_per_sec=memory_bandwidth,
            base_latency_cycles=arch.mem_latency,
        )
        self.memory_bytes = memory_bytes
        self.scheduler = Scheduler(self.topology)
        self.counters = CounterTable(arch.pmu_width, seed=seed)
        self.tick = tick
        self.seed = seed
        self.now = 0.0
        self.processes: dict[int, SimProcess] = {}
        self._threads: dict[int, SimThread] = {}
        self._next_pid = itertools.count(1000)
        self._timers: list[tuple[float, int, Callable[[], None]]] = []
        self._timer_seq = itertools.count()
        self._last_rates: dict[int, SliceRates] = {}
        self._booted = False
        # Kernel memos. Both are exact: the rate cache keys pure-function
        # inputs by identity, and the contention cache keys whole
        # co-schedules by (pu, phase identity, previous-tick CPI). Entries
        # pin the objects behind the ids they key on, so eviction is the
        # only way an id leaves the cache; both admit on a key's second miss.
        self._rate_cache = RateCache() if rate_cache is None else rate_cache
        self._contention_cache: dict[tuple, tuple] = {}
        self._contention_admission = SecondMiss()
        self._contention_hits = 0
        self._contention_misses = 0
        #: The one advance path: every run_* call enters this kernel.
        self._kernel = ColumnKernel(self)
        #: pid -> first tick boundary at/after which the process was seen
        #: dead. This is exactly when an external per-tick reaper (the
        #: grid's) would observe the death, recorded here so epoch-batched
        #: engines can reconstruct finish times without stepping per tick.
        self.death_observed: dict[int, float] = {}

    # ------------------------------------------------------------------
    # Process management
    # ------------------------------------------------------------------
    def spawn(
        self,
        command: str,
        workload: Workload,
        *,
        user: str = "user",
        uid: int | None = None,
        nthreads: int = 1,
        affinity: frozenset[int] | set[int] | None = None,
        nice: int = 0,
        duty_cycle: float = 1.0,
    ) -> SimProcess:
        """Create a process and make its threads runnable immediately.

        Returns the new :class:`SimProcess` (its pid is the handle for
        everything else).
        """
        pid = next(self._next_pid)
        if uid is None:
            uid = 1000 + (zlib.crc32(user.encode()) % 1000)
        if affinity is not None:
            bad = set(affinity) - {p.pu_id for p in self.topology.pus}
            if bad:
                raise SimulationError(f"affinity references unknown PUs {sorted(bad)}")
            affinity = frozenset(affinity)
        if not 0 < duty_cycle <= 1:
            raise SimulationError(f"duty_cycle must be in (0, 1], got {duty_cycle}")
        proc = SimProcess(
            pid=pid,
            uid=uid,
            user=user,
            command=command,
            workload=workload,
            affinity=affinity,
            nice=nice,
            duty_cycle=duty_cycle,
            start_time=self.now,
            rng=np.random.default_rng((self.seed, pid)),
        )
        proc.spawn_threads(nthreads, first_tid=pid)
        # Extra threads consume ids from the same space as pids, so a
        # 4-thread process at pid P owns tids P..P+3 and the next process
        # gets pid P+4 — tids and pids never collide (as on Linux).
        for _ in range(nthreads - 1):
            next(self._next_pid)
        self.processes[pid] = proc
        for t in proc.threads:
            self._threads[t.tid] = t
            if duty_cycle < 1.0:
                t.duty_rng = np.random.default_rng((self.seed, pid, t.tid, 7))
        return proc

    def kill(self, pid: int) -> None:
        """Terminate every thread of ``pid``.

        Raises:
            SimulationError: for an unknown pid.
        """
        proc = self.process(pid)
        for t in proc.threads:
            t.mark_dead()
            self.scheduler.forget(t)
        # Kills land at timer boundaries (or between runs), where ``now``
        # already is a tick boundary — that is when a reaper first sees it.
        self.death_observed.setdefault(pid, self.now)

    def process(self, pid: int) -> SimProcess:
        """Look up a process by pid.

        Raises:
            SimulationError: for an unknown pid.
        """
        try:
            return self.processes[pid]
        except KeyError as exc:
            raise SimulationError(f"no such pid {pid}") from exc

    def thread(self, tid: int) -> SimThread:
        """Look up a thread by tid.

        Raises:
            SimulationError: for an unknown tid.
        """
        try:
            return self._threads[tid]
        except KeyError as exc:
            raise SimulationError(f"no such tid {tid}") from exc

    def live_processes(self) -> list[SimProcess]:
        """Processes with at least one live thread, by pid."""
        return sorted(
            (p for p in self.processes.values() if p.alive), key=lambda p: p.pid
        )

    def at(self, when: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to fire at virtual time ``when``.

        Used by experiment scripts for job arrivals (Fig. 10's user2 burst).

        Raises:
            SimulationError: when ``when`` is in the virtual past.
        """
        if when < self.now:
            raise SimulationError(f"cannot schedule at {when} < now {self.now}")
        heapq.heappush(self._timers, (when, next(self._timer_seq), callback))

    def spawn_at(
        self, when: float, command: str, workload: Workload, **kwargs
    ) -> None:
        """Schedule a :meth:`spawn` at virtual time ``when``.

        Convenience for churn scripts (chaos sweeps, Fig. 10-style job
        arrivals): the spawn happens inside the tick loop, exactly like a
        user starting a job mid-run.
        """
        self.at(when, lambda: self.spawn(command, workload, **kwargs))

    def kill_at(self, when: float, pid: int) -> None:
        """Schedule a :meth:`kill` of ``pid`` at virtual time ``when``.

        A pid that is already gone by then is ignored — the churn script's
        victim may have exited on its own, as on a real machine.
        """

        def _kill() -> None:
            proc = self.processes.get(pid)
            if proc is not None and proc.alive:
                self.kill(pid)

        self.at(when, _kill)

    # ------------------------------------------------------------------
    # Time advance
    # ------------------------------------------------------------------
    def run_for(self, seconds: float) -> None:
        """Advance the virtual clock by ``seconds``."""
        self.run_until(self.now + seconds)

    def run_until(self, deadline: float) -> None:
        """Advance the virtual clock to ``deadline`` in whole ticks.

        Tick accounting is integral: the span is converted to a whole tick
        count once, the kernel runs that many full ticks of exactly
        ``self.tick``, and at most one fractional tick covers the
        remainder. The old form — loop while ``now < deadline - 1e-12``,
        stepping ``min(tick, rest)`` — compared an *absolute* epsilon
        against a clock whose ulp outgrows it (ulp(3.6e5) is already
        ~6e-11), so long runs drifted by whole ticks. Counting ticks as
        integers keeps the step sequence identical to :meth:`run_ticks`
        at any clock magnitude.
        """
        span = deadline - self.now
        if span <= 0:
            return
        quotient = span / self.tick
        # Absolute + relative slack: a quotient that is integral up to
        # accumulated float error (a few ulps) must not lose its last tick
        # to truncation.
        whole = int(quotient + max(1e-9, quotient * 1e-12))
        if whole:
            self._kernel.run(whole, self.tick)
        remainder = deadline - self.now
        if remainder > self.tick * 1e-9:
            self._kernel.run(1, remainder)

    def run_ticks(self, n: int) -> None:
        """Advance exactly ``n`` whole ticks.

        The same :meth:`ColumnKernel.run <repro.sim.columns.ColumnKernel.run>`
        entry as :meth:`run_for` and :meth:`run_until`, which amortises the
        per-tick model evaluation three ways:

        * **Contention memo** — the fixed-point of
          :meth:`_resolve_contention` is a deterministic pure function of
          the co-schedule shape: which PUs run which phases, seeded with
          which previous-tick CPIs. Over-subscribed nodes revisit the same
          co-schedules as the scheduler's round-robin orbit repeats, so the
          resolved :class:`SliceRates` are cached per co-schedule key and
          replayed instead of re-iterated.
        * **Rate memo** — the :class:`RateCache` shared by both memo layers
          deduplicates the inner :func:`compute_rates` calls.
        * **Lazy idle clock** — unscheduled-but-alive tasks only advance
          their counters' ``time_enabled``; instead of touching every
          counter every tick, each task records how many ticks it has been
          accounted for and the arrears are folded in bulk
          (:meth:`CounterTable.advance_idle`) right before the task runs,
          before any timer callback can observe counter state, and at the
          end of the batch.

        Both memos admit a key on its second miss (:class:`SecondMiss`),
        so traffic that never repeats a co-schedule does not fill them.
        Correctness does not depend on hit rates: a miss recomputes the
        very value a hit would return. ``repro.verify.reference`` keeps
        the memo-free scalar stepper this path must match bit for bit.
        """
        if n < 0:
            raise SimulationError(f"cannot run a negative tick count {n}")
        self._kernel.run(n, self.tick)

    def kernel_stats(self) -> dict[str, int]:
        """Columnar-kernel health: slot occupancy, accrual paths and memos.

        Observability only — never part of conformance digests. A high
        ``fallback_slices`` share means the population's counter sets are
        not *simple* (sampling / disabled / multiplexed) and the node lands
        its slices through :meth:`CounterTable.accrue`. The ``rate_cache_*``
        figures belong to the (possibly shard-shared) :class:`RateCache`;
        ``contention_*`` to this machine's co-schedule memo.
        """
        kernel = self._kernel
        columns = self.counters.columns
        rate_cache = self._rate_cache
        return {
            "counter_slots_live": columns.live_slots(),
            "counter_slot_capacity": columns.capacity,
            "tracked_tasks": kernel.size,
            "fast_slices": kernel.fast_slices,
            "fallback_slices": kernel.fallback_slices,
            "rate_cache_hits": rate_cache.hits,
            "rate_cache_misses": rate_cache.misses,
            "rate_cache_entries": len(rate_cache),
            "contention_hits": self._contention_hits,
            "contention_misses": self._contention_misses,
            "contention_entries": len(self._contention_cache),
        }

    def _fire_timers(self) -> None:
        while self._timers and self._timers[0][0] <= self.now + 1e-12:
            _, _, callback = heapq.heappop(self._timers)
            callback()

    # ------------------------------------------------------------------
    # Contention resolution
    # ------------------------------------------------------------------
    def _active_per_core(self, assignment: dict[int, SimThread]) -> dict[int, int]:
        per_core: dict[int, int] = {}
        for pu_id in assignment:
            core = self.topology.pu(pu_id).core_id
            per_core[core] = per_core.get(core, 0) + 1
        return per_core

    def _resolve_contention(
        self,
        assignment: dict[int, SimThread],
        located: dict[int, tuple],
        rate_source,
    ) -> dict[int, SliceRates]:
        """Fixed-point on access pressures -> capacities -> rates.

        ``located`` pre-resolves ``thread.current_phase()`` per tid (the
        lookup is pure within a tick, so hoisting it is exact);
        ``rate_source`` answers the inner rate computations through its
        ``rates()`` method — the machine's :class:`RateCache`, or the
        reference stepper's memo-free stand-in.
        """
        if not assignment:
            return {}
        per_core = self._active_per_core(assignment)
        shares = {
            pu: issue_share(self.arch, per_core[self.topology.pu(pu).core_id])
            for pu in assignment
        }
        # Initial instruction-rate guess: previous tick's rates, else solo.
        inst_rate: dict[int, float] = {}
        rates: dict[int, SliceRates] = {}
        for pu, thread in assignment.items():
            if located[thread.tid] is None:
                continue
            prev = self._last_rates.get(thread.tid)
            guess_cpi = prev.cpi if prev else 1.0
            inst_rate[thread.tid] = self.arch.freq_hz / guess_cpi

        mem_latency = self.arch.mem_latency
        for _ in range(CONTENTION_ITERATIONS):
            pressures: dict[CacheInstance, dict[int, float]] = {}
            demand = 0.0
            for pu, thread in assignment.items():
                loc = located[thread.tid]
                if loc is None:
                    continue
                phase, _ = loc
                path = self.caches.path_for_pu(pu)
                prev = rates.get(thread.tid)
                if prev is not None:
                    profile = prev.miss_profile
                    accesses = profile.accesses
                    demand += (
                        profile.misses[-1]
                        * inst_rate[thread.tid]
                        * path[-1].spec.line
                    )
                else:
                    accesses = [phase.mix.mem_refs] * len(path)
                for inst, acc in zip(path, accesses):
                    pressures.setdefault(inst, {})[thread.tid] = (
                        acc * inst_rate.get(thread.tid, 0.0)
                    )
            mem_latency = self.memory.effective_latency(demand)
            for pu, thread in assignment.items():
                loc = located[thread.tid]
                if loc is None:
                    continue
                phase, _ = loc
                caps = self.caches.levels_with_capacity(pu, pressures, thread.tid)
                r = rate_source.rates(
                    self.arch,
                    phase,
                    caps,
                    mem_latency_cycles=mem_latency,
                    issue_share=shares[pu],
                )
                rates[thread.tid] = r
                inst_rate[thread.tid] = self.arch.freq_hz / r.cpi
        return rates

    #: Size cap for the co-schedule memo (entries are small; the cap only
    #: guards pathological populations with unbounded phase turnover).
    _CONTENTION_CACHE_MAX = 8192

    def _cached_contention(
        self,
        assignment: dict[int, SimThread],
        located: dict[int, tuple],
    ) -> dict[int, SliceRates]:
        """Memoised :meth:`_resolve_contention` for the kernel.

        The fixed-point depends only on the *shape* of the co-schedule:
        (pu, active phase, previous-tick CPI) per slot, in assignment order
        (the order matters because bus demand accumulates in it). The
        previous tick's rates enter the fixed point only as the starting
        CPI guess, so keying that float (1.0 without previous rates, as in
        :meth:`_resolve_contention`) is exact. Phases are immutable and
        identity-keyed, so a hit returns rates equal to a recomputation's.
        """
        if not assignment:
            return {}
        last = self._last_rates
        shape = [
            (pu, loc[0], 1.0 if (prev := last.get(thread.tid)) is None else prev.cpi)
            if (loc := located[thread.tid]) is not None
            else (pu, None, 1.0)
            for pu, thread in assignment.items()
        ]
        key = tuple((pu, id(phase), cpi) for pu, phase, cpi in shape)
        entry = self._contention_cache.get(key)
        threads = list(assignment.values())
        if entry is not None:
            self._contention_hits += 1
            results = entry[0]
            return {
                thread.tid: r
                for thread, r in zip(threads, results)
                if r is not None
            }
        self._contention_misses += 1
        rates = self._resolve_contention(assignment, located, self._rate_cache)
        digest = hash(
            tuple(
                (pu, -1 if phase is None else phase.serial, cpi)
                for pu, phase, cpi in shape
            )
        )
        if not self._contention_admission.admit(digest):
            return rates
        results = tuple(rates.get(thread.tid) for thread in threads)
        keepalive = tuple(phase for _, phase, _ in shape)
        if len(self._contention_cache) >= self._CONTENTION_CACHE_MAX:
            # Oldest-half FIFO, same rationale as RateCache._evict: keep
            # the recent (live-orbit) half instead of thrashing to cold.
            for stale in list(
                itertools.islice(
                    self._contention_cache, self._CONTENTION_CACHE_MAX // 2
                )
            ):
                del self._contention_cache[stale]
        self._contention_cache[key] = (results, keepalive)
        return rates

    def _reap(self, thread: SimThread, dt: float) -> None:
        """Retire a thread whose workload has completed."""
        if thread.state is TaskState.DEAD:
            return
        thread.mark_dead()
        self.scheduler.forget(thread)
        self._last_rates.pop(thread.tid, None)
        proc = thread.process
        if not proc.alive:
            # ``now`` is still pre-increment inside a slice: the death is
            # first observable at the end of this tick.
            self.death_observed.setdefault(proc.pid, self.now + dt)
