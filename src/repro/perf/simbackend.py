"""Simulated kernel backend: perf_event semantics over a SimMachine.

Implements the same :class:`~repro.perf.counter.Backend` protocol as the
real syscall backend, against :class:`~repro.sim.machine.SimMachine`'s
counter table. Kernel behaviours modelled:

* **Permission** (paper footnote 1): a non-root monitoring uid may only
  open counters on tasks it owns — EPERM otherwise.
* **Liveness**: opening on a dead/unknown task raises ESRCH.
* **PMU capability**: raw events absent from the architecture's PMU fail
  at open, like programming an unknown event select.
* **Inherit**: ``inherit=True`` on a process's leader counts all of its
  current threads (per-process mode, §2.2 "events can be counted per
  thread, or per process"); the returned handle fans reads out over the
  per-thread kernel counters and sums them.
* **Multiplexing**: handled by the machine's counter table; ``read``
  returns ``time_enabled``/``time_running`` so user space can scale.
* **Faults**: an optional :class:`~repro.perf.faults.FaultPlan` injects
  seeded failures (ESRCH, EMFILE, EINTR, EAGAIN, corrupt reads,
  multiplex starvation) into open/enable/read/close — the misbehaving
  kernel the tool must survive, replayable from one seed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.errors import (
    CounterStateError,
    EventError,
    NoSuchTaskError,
    PerfPermissionError,
)
from repro.perf.counter import Reading
from repro.perf.events import EventSpec
from repro.perf.faults import FaultPlan
from repro.sim.counters import KernelCounter
from repro.sim.machine import SimMachine

#: uid 0 may watch anyone, as in Linux.
ROOT_UID = 0


@dataclass
class _Handle:
    handle_id: int
    tid: int
    kernel_counters: list[KernelCounter]
    closed: bool = False
    last_reading: Reading | None = None


class SimBackend:
    """perf backend over a simulated machine.

    Args:
        machine: the simulated node.
        monitor_uid: uid of the monitoring process (tiptop itself). Tiptop
            requires no privilege (§2.2); like the kernel, the backend
            enforces that an unprivileged monitor only watches its own
            processes unless ``monitor_uid`` is ROOT_UID.
        faults: optional seeded fault plan consulted on every backend
            call (None = a well-behaved kernel).
    """

    def __init__(
        self,
        machine: SimMachine,
        monitor_uid: int = ROOT_UID,
        *,
        faults: FaultPlan | None = None,
    ) -> None:
        self.machine = machine
        self.monitor_uid = monitor_uid
        self.faults = faults
        self._handles: dict[int, _Handle] = {}
        self._ids = itertools.count(100)
        #: lifetime open/close tally, for leak accounting in tests.
        self.opened_total = 0
        self.closed_total = 0

    # -- helpers ---------------------------------------------------------
    def _target_tids(self, tid: int, inherit: bool) -> list[int]:
        # A tid may name a process leader or an individual thread. Pids
        # and tids share one id space, so at most one lookup matches, and
        # neither scans the (ever-growing) table of dead processes.
        proc = self.machine.processes.get(tid)
        if proc is not None:
            self._check_permission(proc.uid)
            if not proc.alive:
                raise NoSuchTaskError(f"task {tid} has exited")
            if inherit:
                return [t.tid for t in proc.threads if t.alive]
            return [proc.threads[0].tid]
        thread = self.machine._threads.get(tid)
        if thread is None:
            raise NoSuchTaskError(f"no such task {tid}")
        self._check_permission(thread.process.uid)
        if not thread.alive:
            raise NoSuchTaskError(f"task {tid} has exited")
        return [tid]

    def _check_permission(self, owner_uid: int) -> None:
        if self.monitor_uid != ROOT_UID and self.monitor_uid != owner_uid:
            raise PerfPermissionError(
                f"uid {self.monitor_uid} may not monitor tasks of uid {owner_uid}"
            )

    def _get(self, handle: int) -> _Handle:
        h = self._handles.get(handle)
        if h is None or h.closed:
            raise CounterStateError(f"no such open handle {handle}")
        return h

    def _inject(self, op: str, tid: int) -> str | None:
        """Consult the fault plan; raising classes raise from here."""
        if self.faults is None:
            return None
        return self.faults.raise_for(op, tid)

    # -- Backend protocol -------------------------------------------------
    def open(
        self,
        event: EventSpec,
        tid: int,
        *,
        inherit: bool = False,
        sample_period: int | None = None,
    ) -> int:
        """Open ``event`` on ``tid``; see the module docstring for semantics.

        ``sample_period`` switches the counter into sampling mode (§2.5):
        the value is reconstructed from PMU interrupts every ``period``
        events rather than counted exactly.

        A partial open never leaks: if opening the per-thread kernel
        counter k of n fails (dead thread, injected fault), the k-1
        already-open kernel counters are closed before the error
        propagates.
        """
        self._inject("open", tid)
        if not self.machine.arch.supports_event(event.sim_event):
            raise EventError(
                f"PMU of {self.machine.arch.name} cannot count {event.name!r}"
            )
        tids = self._target_tids(tid, inherit)
        kcs: list[KernelCounter] = []
        try:
            for t in tids:
                kcs.append(
                    self.machine.counters.open(
                        event.sim_event,
                        t,
                        self.monitor_uid,
                        sample_period=sample_period,
                    )
                )
        except Exception:
            for kc in kcs:
                if not kc.closed:
                    self.machine.counters.close(kc.counter_id)
            raise
        handle = next(self._ids)
        self._handles[handle] = _Handle(handle, tid, kcs)
        self.opened_total += 1
        return handle

    def _read_handle(self, h: _Handle) -> Reading:
        """One clean (fault-free) read of a handle's kernel counters.

        Served incrementally from the counter table's accumulator columns
        (:meth:`CounterTable.read_group`) — the read never recomputes or
        walks simulation state, whichever advance path produced it.
        """
        value, enabled, running = self.machine.counters.read_group(
            h.kernel_counters
        )
        reading = Reading(value, enabled, running)
        h.last_reading = reading
        return reading

    def _starved_reading(self, h: _Handle) -> Reading:
        """What a multiplex-starved interval reads as: no progress.

        The counter never reached the PMU since the last read, so the
        value and ``time_running`` are frozen at their previous snapshot
        (delta scaling then yields 0 for the interval, as on Linux).
        """
        if h.last_reading is not None:
            return h.last_reading
        return Reading(0, 0.0, 0.0)

    def read(self, handle: int) -> Reading:
        """Sum the per-thread kernel counters behind this handle."""
        h = self._get(handle)
        if self._inject("read", h.tid) == "starve":
            return self._starved_reading(h)
        return self._read_handle(h)

    def read_many(self, handles: list[int]) -> list[Reading]:
        """Batched :meth:`read`: one Reading per handle, in order.

        One call per sampling pass instead of one per counter — the
        syscall-batching analogue of perf's group reads. Results are
        exactly what per-handle ``read`` calls would return, including any
        injected faults: each handle consults the fault plan exactly as an
        individual ``read`` would, and an injected error aborts the whole
        batch before any delta baseline moves.
        """
        resolved = [self._get(handle) for handle in handles]
        readings: list[Reading] = []
        for h in resolved:
            if self._inject("read", h.tid) == "starve":
                readings.append(self._starved_reading(h))
            else:
                readings.append(self._read_handle(h))
        return readings

    def enable(self, handle: int) -> None:
        """Arm all underlying kernel counters."""
        h = self._get(handle)
        self._inject("enable", h.tid)
        for kc in h.kernel_counters:
            kc.enabled = True

    def disable(self, handle: int) -> None:
        """Disarm all underlying kernel counters."""
        h = self._get(handle)
        self._inject("disable", h.tid)
        for kc in h.kernel_counters:
            kc.enabled = False

    def reset(self, handle: int) -> None:
        """Zero all underlying kernel counter values."""
        h = self._get(handle)
        self._inject("reset", h.tid)
        for kc in h.kernel_counters:
            kc.value = 0.0

    def close(self, handle: int) -> None:
        """Release the handle and its kernel counters.

        Mirrors ``close(2)`` on Linux: the descriptor is released even
        when the call reports EINTR, so an injected interrupt fires
        *after* the kernel counters are gone and nothing leaks.
        """
        h = self._get(handle)
        for kc in h.kernel_counters:
            if not kc.closed:
                self.machine.counters.close(kc.counter_id)
        h.closed = True
        del self._handles[handle]
        self.closed_total += 1
        self._inject("close", h.tid)

    def open_handle_count(self) -> int:
        """Number of live handles (for leak tests)."""
        return len(self._handles)

    def live_handles(self) -> list[dict]:
        """Kernel-side state of every open handle (conformance hook).

        Fault-free introspection for the invariant oracles: per handle,
        the target tid and each underlying kernel counter's simulated
        event plus its current ``reading()`` triple and enable bit. Reads
        here do not consult the fault plan and move no delta baselines.
        """
        out = []
        for h in self._handles.values():
            out.append(
                {
                    "handle": h.handle_id,
                    "tid": h.tid,
                    "counters": tuple(
                        (kc.event, *kc.reading(), kc.enabled)
                        for kc in h.kernel_counters
                    ),
                }
            )
        return out
