"""Property tests: ``run_ticks(n)`` is bitwise-identical to n scalar steps.

The columnar kernel exists purely for speed — its memo caches (rate
cache, contention cache, idle-clock folding) must return the very values
the scalar per-tick reference computes, including every float rounding
step and every RNG draw. These tests drive two identically-built machines,
one via ``n`` calls of the reference stepper
(:func:`repro.verify.reference.step`) and one via ``run_ticks(n)``, and
require the
*entire* observable state to match exactly: thread progress, scheduler
bookkeeping, every counter's value and both kernel clocks, multiplexing
rotation, and the virtual clock.

Scenarios cover the regimes the batching logic special-cases: seeds, tick
sizes, oversubscription, SMT co-runs pinned to sibling hardware threads,
duty-cycled tasks (per-tick RNG draws), multi-threaded processes with nice
levels, sampling-mode counters, multiplexed counters beyond the PMU width,
timers that spawn and kill mid-run, and interleaving batched with scalar
advancement.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.sim.arch import NEHALEM
from repro.sim.events import Event
from repro.sim.machine import SimMachine
from repro.sim.workloads import synthetic
from repro.verify import reference

EVENTS = (Event.INSTRUCTIONS, Event.CYCLES, Event.CACHE_MISSES)


def machine_state(machine: SimMachine) -> dict:
    """Every observable the two paths must agree on, exactly."""
    state: dict = {"now": machine.now}
    for tid, thread in machine._threads.items():
        state[("thread", tid)] = (
            thread.retired,
            thread.cycles,
            thread.cpu_time,
            thread.vruntime,
            thread.context_switches,
            thread.state,
            thread.alive,
            thread.last_pu,
        )
    for cid, counter in machine.counters._by_id.items():
        state[("counter", cid)] = (
            counter.value,
            counter.time_enabled,
            counter.time_running,
            counter.samples,
            counter._carry,
            counter.enabled,
        )
    state["rotation"] = dict(machine.counters._rotation)
    state["last_assignment"] = {
        pu: t.tid for pu, t in machine.scheduler._last_assignment.items()
    }
    state["alive_pids"] = sorted(p.pid for p in machine.live_processes())
    return state


def assert_paths_equal(build, n: int) -> None:
    scalar = build()
    batched = build()
    for _ in range(n):
        reference.step(scalar, scalar.tick)
    batched.run_ticks(n)
    a, b = machine_state(scalar), machine_state(batched)
    assert a.keys() == b.keys()
    mismatched = [key for key in a if a[key] != b[key]]
    assert not mismatched, (
        f"{len(mismatched)} state entries diverge after {n} ticks, "
        f"first: {mismatched[0]!r} -> {a[mismatched[0]]} != {b[mismatched[0]]}"
    )


def populate(machine: SimMachine, count: int, *, spec_seed: int,
             events=EVENTS, **spawn_kwargs) -> None:
    for spec in synthetic.generate_specs(count, seed=spec_seed):
        proc = machine.spawn(spec.name, synthetic.build(spec, machine.arch, seed=11),
                             **spawn_kwargs)
        for event in events:
            machine.counters.open(event, proc.pid, 0)


class TestOversubscribed:
    """More runnable tasks than PUs: the memo caches' bread and butter."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("n", [1, 17, 60])
    def test_seeds_and_lengths(self, seed, n):
        def build():
            machine = SimMachine(
                NEHALEM, sockets=1, cores_per_socket=2, tick=0.1, seed=seed
            )
            populate(machine, 12, spec_seed=seed + 10)
            return machine

        assert_paths_equal(build, n)

    @pytest.mark.parametrize("tick", [0.05, 0.25, 1.0])
    def test_tick_sizes(self, tick):
        def build():
            machine = SimMachine(
                NEHALEM, sockets=1, cores_per_socket=2, tick=tick, seed=5
            )
            populate(machine, 10, spec_seed=2)
            return machine

        assert_paths_equal(build, 40)


class TestSchedulingShapes:
    def test_smt_corun_pinned_to_sibling_threads(self):
        """Two tasks forced onto one physical core's hardware threads
        (the paper's §3.4 taskset scenario) plus unpinned neighbours."""

        def build():
            machine = SimMachine(
                NEHALEM, sockets=1, cores_per_socket=2, tick=0.1, seed=9
            )
            specs = synthetic.generate_specs(6, seed=4)
            for i, spec in enumerate(specs):
                affinity = frozenset({0, 1}) if i < 2 else None
                proc = machine.spawn(
                    spec.name,
                    synthetic.build(spec, NEHALEM, seed=11),
                    affinity=affinity,
                )
                for event in EVENTS:
                    machine.counters.open(event, proc.pid, 0)
            return machine

        assert_paths_equal(build, 50)

    def test_duty_cycles_draw_identical_rng_streams(self):
        def build():
            machine = SimMachine(
                NEHALEM, sockets=1, cores_per_socket=2, tick=0.1, seed=3
            )
            populate(machine, 8, spec_seed=6, duty_cycle=0.6)
            return machine

        assert_paths_equal(build, 50)

    def test_multithreaded_and_nice(self):
        def build():
            machine = SimMachine(
                NEHALEM, sockets=1, cores_per_socket=2, tick=0.1, seed=13
            )
            specs = synthetic.generate_specs(5, seed=8)
            for i, spec in enumerate(specs):
                proc = machine.spawn(
                    spec.name,
                    synthetic.build(spec, NEHALEM, seed=11),
                    nthreads=1 + i % 3,
                    nice=(i % 3) - 1,
                )
                for event in EVENTS:
                    machine.counters.open(event, proc.pid, 0)
            return machine

        assert_paths_equal(build, 45)


class TestCounterModes:
    def test_sampling_mode_counters(self):
        """Sampling counters draw from the table RNG; draw order and
        carry arithmetic must survive batching."""

        def build():
            machine = SimMachine(
                NEHALEM, sockets=1, cores_per_socket=2, tick=0.1, seed=21
            )
            specs = synthetic.generate_specs(6, seed=5)
            for spec in specs:
                proc = machine.spawn(
                    spec.name, synthetic.build(spec, NEHALEM, seed=11)
                )
                machine.counters.open(
                    Event.INSTRUCTIONS, proc.pid, 0, sample_period=100_000
                )
                machine.counters.open(Event.CYCLES, proc.pid, 0)
            return machine

        assert_paths_equal(build, 50)

    def test_multiplexing_beyond_pmu_width(self):
        """With pmu_width=2 and three counters per task the rotation
        window moves every tick — including the batched idle bump."""
        narrow = replace(NEHALEM, pmu_width=2)

        def build():
            machine = SimMachine(
                narrow, sockets=1, cores_per_socket=2, tick=0.1, seed=17
            )
            populate(machine, 9, spec_seed=7)
            return machine

        assert_paths_equal(build, 50)


class TestTimersAndLifecycles:
    def test_timers_spawn_and_kill_mid_run(self):
        def build():
            machine = SimMachine(
                NEHALEM, sockets=1, cores_per_socket=2, tick=0.1, seed=29
            )
            populate(machine, 6, spec_seed=9)
            victim = next(iter(machine.processes))
            extra = synthetic.generate_specs(8, seed=12)[-1]

            def arrive():
                proc = machine.spawn(
                    "latecomer", synthetic.build(extra, NEHALEM, seed=11)
                )
                for event in EVENTS:
                    machine.counters.open(event, proc.pid, 0)

            machine.at(1.05, arrive)
            machine.at(2.35, lambda: machine.kill(victim))
            return machine

        assert_paths_equal(build, 40)

    def test_timer_kills_and_respawns_at_same_boundary(self):
        """One timer instant kills a task and spawns its replacement.

        The ``synced`` arrears bookkeeping is the edge here: the dead
        task's counters must be brought current *before* the callback runs
        (the kill freezes them mid-batch), and the replacement — ingested
        at the same batch index the victim vacated — must start its
        arrears at the current tick, not at zero, or ``advance_idle``
        would fold phantom idle ticks into its fresh counters.
        """

        def build():
            machine = SimMachine(
                NEHALEM, sockets=1, cores_per_socket=2, tick=0.1, seed=53
            )
            populate(machine, 5, spec_seed=21)
            victim = next(iter(machine.processes))
            spec = synthetic.generate_specs(9, seed=33)[-1]

            def churn():
                machine.kill(victim)
                proc = machine.spawn(
                    "respawn", synthetic.build(spec, NEHALEM, seed=11)
                )
                for event in EVENTS:
                    machine.counters.open(event, proc.pid, 0)

            machine.at(1.5, churn)
            # A second churn deeper into the batch: arrears are larger and
            # the replacement's tid reuses nothing (tids are monotonic).
            machine.at(3.1, lambda: machine.kill(1001))
            return machine

        assert_paths_equal(build, 60)

    def test_workloads_complete_and_reap(self):
        """Short-budget workloads finish mid-batch; dead tasks must
        freeze their counters at the same instant on both paths."""

        def build():
            machine = SimMachine(
                NEHALEM, sockets=1, cores_per_socket=2, tick=0.25, seed=31
            )
            populate(machine, 8, spec_seed=14)
            return machine

        # Long enough that some synthetic workloads run to completion.
        assert_paths_equal(build, 200)


class TestIdleArrears:
    def test_short_and_long_arrears_on_mixed_counter_sets(self):
        """Idle arrears folded at a timer boundary and at batch end, both
        within the kernel's all-task vector fold and beyond it (rarely
        runnable tasks owe ~100 ticks), over simple, multiplexed and
        counter-less tasks alike."""

        def build():
            machine = SimMachine(
                replace(NEHALEM, pmu_width=2), sockets=1, cores_per_socket=1,
                tick=0.1, seed=13,
            )
            populate(machine, 3, spec_seed=6)  # 3 events > width: multiplexed
            populate(machine, 3, spec_seed=7, events=EVENTS[:2])
            populate(machine, 2, spec_seed=8, events=())
            populate(machine, 2, spec_seed=9, events=EVENTS[:2],
                     duty_cycle=0.01)
            machine.at(9.05, lambda: None)  # a boundary deep into the batch
            return machine

        assert_paths_equal(build, 150)


class TestInterleaving:
    def test_batched_and_scalar_interleave(self):
        def build():
            machine = SimMachine(
                NEHALEM, sockets=1, cores_per_socket=2, tick=0.1, seed=37
            )
            populate(machine, 10, spec_seed=3)
            return machine

        scalar = build()
        mixed = build()
        for _ in range(30):
            reference.step(scalar, scalar.tick)
        mixed.run_ticks(11)
        for _ in range(5):
            reference.step(mixed, mixed.tick)
        mixed.run_ticks(14)
        a, b = machine_state(scalar), machine_state(mixed)
        assert a == b

    def test_zero_and_negative(self):
        machine = SimMachine(NEHALEM, tick=0.1, seed=1)
        before = machine_state(machine)
        machine.run_ticks(0)
        assert machine_state(machine) == before
        with pytest.raises(Exception):
            machine.run_ticks(-1)
