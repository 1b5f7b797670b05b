"""Reference semantics: the scalar machine stepper and the per-tick grid loop.

The shipped simulator has one advance path, the columnar
:class:`~repro.sim.columns.ColumnKernel` behind every ``SimMachine.run_*``
call, and one grid loop, the dispatch-epoch loop of
:class:`~repro.sim.grid.Grid`. This module keeps the plain implementations
they replaced, so the oracles can keep proving that the fast paths compute
exactly what the plain ones do:

* :func:`step` (and :func:`run_ticks` / :func:`run_until` /
  :func:`run_for` over it) — the scalar stepper. One tick at a time: a
  list scan for runnable threads, ``sorted()`` fairness order
  (:func:`dispatch`), the contention fixed point without any memo,
  per-slice event deltas in a dict, and one idle accrual per unscheduled
  task per tick (never :meth:`CounterTable.advance_idle`).
* :class:`ReferenceGrid` — the per-tick grid loop: dispatch, advance every
  node one tick with the scalar stepper, reap; spawns, evictions and
  wallclock kills apply to the machines directly. Scenarios name it
  engine ``"legacy"`` (:func:`build_grid`).

Only oracles (:mod:`repro.verify.runner`), tests and benchmark baselines
import this module; ``tests/test_import_boundary.py`` keeps it off the
shipped paths.
"""

from __future__ import annotations

import math
from typing import Any

from repro.errors import SimulationError
from repro.sim.core import SliceRates, compute_rates
from repro.sim.events import Event
from repro.sim.grid import Grid, Job, NodeSpec, QueueSpec
from repro.sim.machine import SimMachine
from repro.sim.parallel import InProcessEngine, build_machine, node_snapshot
from repro.sim.process import SimThread, TaskState
from repro.sim.scheduler import Dispatch, Scheduler


# -- the scalar machine stepper -------------------------------------------------

class _Uncached:
    """Rate source for :meth:`SimMachine._resolve_contention` that computes
    every rate afresh: the reference shares no memo with the kernel."""

    @staticmethod
    def rates(arch, phase, level_capacities, mem_latency_cycles=None,
              issue_share=1.0) -> SliceRates:
        return compute_rates(
            arch,
            phase,
            level_capacities,
            mem_latency_cycles=mem_latency_cycles,
            issue_share=issue_share,
        )


def dispatch(scheduler: Scheduler, runnable: list[SimThread], dt: float) -> Dispatch:
    """Assign runnable threads to PUs for one tick of length ``dt``.

    Ranks with ``sorted(key=(vruntime, tid))`` where the kernel uses one
    ``np.lexsort`` over its columns, then walks the scheduler's placement.
    """
    runnable = [t for t in runnable if t.state is TaskState.RUNNABLE]
    order = sorted(runnable, key=lambda t: (t.vruntime, t.tid))
    return scheduler._place(order, dt)


def step(machine: SimMachine, dt: float) -> None:
    """Advance ``machine`` by one tick of ``dt`` seconds."""
    machine._fire_timers()
    runnable = [
        t
        for t in machine._threads.values()
        if t.state is TaskState.RUNNABLE
        and (t.duty_rng is None or t.duty_rng.random() < t.process.duty_cycle)
    ]
    assignment = dispatch(machine.scheduler, runnable, dt).assignment
    located = {
        thread.tid: thread.current_phase() for thread in assignment.values()
    }
    rates = machine._resolve_contention(assignment, located, _Uncached)

    scheduled_tids: set[int] = set()
    for thread in assignment.values():
        _run_slice(machine, thread, rates.get(thread.tid), dt)
        scheduled_tids.add(thread.tid)

    # Counter bookkeeping for unscheduled-but-alive threads: enabled time
    # advances, running time does not.
    for tid, thread in machine._threads.items():
        if tid not in scheduled_tids and thread.alive:
            machine.counters.accrue(
                tid, {}, wall_dt=dt, scheduled_dt=0.0, alive=True
            )

    machine.now += dt
    machine._fire_timers()


def _run_slice(
    machine: SimMachine,
    thread: SimThread,
    contended: SliceRates | None,
    dt: float,
) -> None:
    """Retire instructions on ``thread`` for one tick.

    ``current_phase()`` is pure between mutations of ``thread.retired``,
    so each phase position is located exactly once per retirement step
    and the result reused for the loop/termination checks.
    """
    located = thread.current_phase()
    if located is None:
        machine._reap(thread, dt)
        return
    arch = machine.arch
    cycle_budget = arch.freq_hz * dt
    consumed_cycles = 0.0
    deltas: dict[Event, float] = {}
    noise = math.exp(
        thread.process.rng.normal(0.0, located[0].noise)
    ) if located[0].noise > 0 else 1.0

    base = contended
    while cycle_budget > 1e-6 and located is not None:
        phase, remaining = located
        if base is not None and base.miss_profile.accesses:
            rates = base
        else:
            caps = [(s, float(s.size)) for s in arch.cache_levels]
            rates = compute_rates(arch, phase, caps)
        # Jitter only the execution component; penalty cycles are
        # physical latencies and stay put.
        cpi = rates.cpi_exec * noise + (rates.cpi - rates.cpi_exec)
        instructions = min(cycle_budget / cpi, remaining)
        cycles = instructions * cpi
        for event, per_instr in rates.events.items():
            if event is Event.CYCLES:
                deltas[event] = deltas.get(event, 0.0) + cycles
            else:
                deltas[event] = deltas.get(event, 0.0) + per_instr * instructions
        thread.retired += instructions
        thread.cycles += cycles
        consumed_cycles += cycles
        cycle_budget -= cycles
        located = thread.current_phase()
        if located is None:
            break
        # Crossing into a new phase invalidates the contended rates;
        # recompute solo for the remainder of this tick.
        if remaining <= instructions + 1e-9:
            base = None

    scheduled_dt = dt * min(1.0, consumed_cycles / (arch.freq_hz * dt))
    thread.cpu_time += scheduled_dt
    done = located is None
    # A thread that finishes mid-tick stops its counters' enabled clock at
    # death; otherwise user-space scaling (enabled/running) would
    # extrapolate the dead fraction of the tick as multiplexed time.
    machine.counters.accrue(
        thread.tid,
        deltas,
        wall_dt=scheduled_dt if done else dt,
        scheduled_dt=scheduled_dt,
        alive=True,
    )
    if contended is not None:
        machine._last_rates[thread.tid] = contended
    if done:
        machine._reap(thread, dt)


def run_ticks(machine: SimMachine, n: int) -> None:
    """``n`` whole ticks, one :func:`step` each."""
    for _ in range(n):
        step(machine, machine.tick)


def run_until(machine: SimMachine, deadline: float) -> None:
    """Advance to ``deadline``: whole ticks counted as an integer, then at
    most one fractional step (the tick accounting of
    :meth:`SimMachine.run_until`)."""
    span = deadline - machine.now
    if span <= 0:
        return
    quotient = span / machine.tick
    whole = int(quotient + max(1e-9, quotient * 1e-12))
    for _ in range(whole):
        step(machine, machine.tick)
    remainder = deadline - machine.now
    if remainder > machine.tick * 1e-9:
        step(machine, remainder)


def run_for(machine: SimMachine, seconds: float) -> None:
    """Advance ``machine`` by ``seconds`` through the scalar stepper."""
    run_until(machine, machine.now + seconds)


# -- the per-tick grid loop -----------------------------------------------------

class LegacyTickEngine(InProcessEngine):
    """In-process machines with no batching: the nodes of a
    :class:`ReferenceGrid`, which advances them itself, tick by tick."""

    name = "legacy"

    def __init__(self, specs: list[NodeSpec], tick: float, seed: int) -> None:
        super().__init__()
        self.nodes: dict[str, SimMachine] = {
            spec.name: build_machine(spec, tick, seed + i)
            for i, spec in enumerate(specs)
        }

    def snapshot(self, node: str) -> dict[str, Any]:
        return node_snapshot(self.nodes[node])

    def snapshot_many(self, names: list[str]) -> dict[str, dict[str, Any]]:
        return {name: node_snapshot(self.nodes[name]) for name in names}


class ReferenceGrid(Grid):
    """The pre-epoch grid: dispatch, one scalar tick per node, reap.

    Same constructor as :class:`Grid` (the engine name is ignored; worker
    options are rejected). Every engine's :meth:`Grid.conformance_digest`
    must equal this loop's bit for bit.
    """

    def _create_engine(self, engine, specs, tick, seed, workers, **options):
        given = sorted(name for name, value in options.items() if value is not None)
        if given:
            raise SimulationError(
                "the per-tick reference grid runs in-process and takes no "
                + ", ".join(given)
            )
        return LegacyTickEngine(specs, tick, seed)

    def _start(self, job: Job, queue: QueueSpec) -> None:
        machine = self.nodes[job.node]  # type: ignore[index]
        job.process = machine.spawn(job.name, job.workload, user=job.user)
        job.pid = job.process.pid
        if queue.max_wallclock != float("inf"):
            self._arm_wallclock_kill(job, queue.max_wallclock)

    def _evict(self, victim: Job) -> None:
        if victim.process is not None and victim.process.alive:
            self.nodes[victim.node].kill(victim.process.pid)  # type: ignore[index]

    def _arm_wallclock_kill(self, job: Job, limit: float) -> None:
        machine = self.nodes[job.node]  # type: ignore[index]
        # Capture the process at arm time: a preempted job's restart gets a
        # NEW process (possibly on another node) that this stale timer must
        # never touch.
        proc = job.process

        def kill() -> None:
            if proc is not None and proc.alive:
                machine.kill(proc.pid)
                if job.process is proc:
                    job.killed = True

        machine.at(machine.now + limit, kill)

    def run_for(self, seconds: float) -> None:
        """Advance every node in lockstep, one tick at a time."""
        remaining = seconds
        while remaining > 1e-12:
            tick = min(self.tick, remaining)
            self._dispatch()
            for machine in self.nodes.values():
                run_for(machine, tick)
            self.now += tick
            remaining -= tick
            self._reap()
        self._dispatch()

    def _reap(self) -> None:
        for job in self._jobs:
            if (
                job.process is not None
                and job.finished_at is None
                and not job.process.alive
            ):
                job.finished_at = self.now


def build_grid(
    node_specs: list[NodeSpec] | None = None,
    queues: list[QueueSpec] | None = None,
    *,
    engine: str | None = None,
    **kwargs,
) -> Grid:
    """A :class:`Grid`, or the :class:`ReferenceGrid` for engine ``"legacy"``."""
    cls = ReferenceGrid if engine == "legacy" else Grid
    return cls(node_specs, queues, engine=engine, **kwargs)
