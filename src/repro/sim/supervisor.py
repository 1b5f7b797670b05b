"""The supervised grid engine: worker shards, deadlines, restarts, replay.

:class:`SupervisedShardedEngine` is the one multi-shard grid engine (the
grid names ``"supervised"``, ``"sharded"`` and ``"fleet"`` all build
it). Nodes partition over persistent worker agents, one disjoint
:class:`~repro.sim.parallel.Shard` each, behind a pluggable
:class:`~repro.sim.transport.ShardTransport`; machines are built inside
the agent from (spec, seed) and each epoch costs one compact message
round-trip per worker. Around that protocol sits a supervision tree, so
that coarse monitoring infrastructure *degrades, never deadlocks* (the
paper's operational premise, applied to the grid layer):

1. **Detect** — every worker round-trip gets an epoch deadline
   (poll-with-timeout recv) and a liveness check (exitcode / pipe
   state). Crashes, hangs and garbled replies surface as a typed
   :class:`~repro.errors.WorkerFailure` instead of raw pipe errors.
2. **Restart + replay** — the supervisor journals each epoch's
   ``(commands, n_ticks, frac)`` per shard. A dead worker is restarted
   with bounded exponential backoff and its shard resurrected
   deterministically: rebuilt from ``spec + seed`` and the journal
   replayed. Machine evolution is a pure function of spec, seed, tick
   and the timed command sequence, so resurrection is bitwise-equivalent
   to a never-crashed run (asserted via ``Grid.conformance_digest``).
3. **Adopt** — a shard that keeps killing its worker on the *same*
   epoch (a poison epoch) is adopted by an in-process
   :class:`~repro.sim.parallel.Shard` owned by the supervisor; the run
   continues with serial semantics for that shard only.
4. **Degrade** — when a host's worker restart budget is exhausted the
   host degrades to serial semantics (every one of its shards adopted)
   instead of failing the run.
5. **Resurrect hosts** — with a host tier (``hosts`` given, the
   ``"fleet"`` engine) a degraded host is torn down and rebuilt from its
   slots' own journals, up to ``Supervision.host_restart_budget`` times;
   past that it stays degraded-but-correct.

Node placement. With ``H`` hosts of ``W_h = workers // H`` slots each,
node *i* goes to host ``i % H`` and then to slot ``(i // H) % W_h``
within it; its global worker id is ``host * W_h + slot`` and its seed
``base_seed + i``. For 8 nodes on 2 hosts of 2 slots the ids run
0, 2, 1, 3, 0, 2, 1, 3. Without a host tier ``H = 1`` and node *i*
goes to worker ``i % workers``. Chaos schedules and event logs key on
the global ids, so they do not depend on the transport.

Chaos. :class:`GridFaultPlan` mirrors ``repro.perf.faults``: a
seeded, stateless, picklable plan executed *inside* the worker loop.
``decide(worker, epoch, incarnation)`` hashes its arguments (crc32, like
``FaultPlan``) so the schedule is a pure function of the seed —
``--grid-chaos SEED`` replays byte-identically. Rate faults draw a fresh
variate per incarnation, so a restarted worker normally survives the
retry (transient faults); ``at_epochs`` faults marked ``persistent``
refire on every incarnation, which is exactly the poison-epoch path.

Network chaos. :class:`~repro.sim.netchaos.NetChaosPlan` breaks the
*links* instead of the workers: requests lost to a partition surface as
``WorkerFailure(kind="unreachable")`` and walk the same
restart/replay/adopt/degrade ladder — a partition that outlives
``poison_limit`` attempts is adopted exactly like a poison epoch. The
split-brain hazard (a half-open link where the old agent *applied* the
epoch before the supervisor retried it through a new incarnation) is
closed by epoch fencing in the transport layer: the stale reply is
rejected by its ``(incarnation, epoch)`` token, counted in
:meth:`SupervisedShardedEngine.fenced_replies`, and the conformance
digest stays bitwise-equal to the serial engine's.

Determinism of the event log. Supervisor events carry only values that
are pure functions of (scenario, seed, chaos plan): worker index, epoch
number, failure kind, incarnation, replayed-epoch counts, configured
backoff, and (under a host tier) the host. Wall-clock times and OS exit
codes are kept out so two runs of the same chaos seed produce identical
logs. Events are appended in the order they happen.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.errors import ConfigError, SimulationError, WorkerFailure
from repro.sim.parallel import Shard, supervision_stats
from repro.sim.transport import CRASH_EXIT, make_transport
from repro.util.backoff import BackoffPolicy

if TYPE_CHECKING:
    from repro.sim.grid import NodeSpec
    from repro.sim.netchaos import NetChaosPlan

__all__ = [
    "CRASH_EXIT",
    "GRID_FAULT_KINDS",
    "GridFaultPlan",
    "GridFaultSpec",
    "Supervision",
    "SupervisedShardedEngine",
    "default_grid_specs",
]

#: Fault kinds a worker can be ordered to exhibit.
GRID_FAULT_KINDS = ("crash", "hang", "garble")


@dataclass(frozen=True)
class GridFaultSpec:
    """One chaos behaviour for grid workers.

    Attributes:
        kind: ``"crash"`` (worker exits before advancing), ``"hang"``
            (worker ignores SIGTERM and stops replying), or ``"garble"``
            (worker replies with a malformed report without advancing).
            Every kind fires *before* the shard advances, so a faulted
            epoch is never half-applied and journal replay is exact.
        rate: probability per (worker, epoch, incarnation) draw.
        at_epochs: exact epoch indices to fire at (overrides ``rate``).
        worker: restrict to one worker index (None = all workers).
        persistent: ``at_epochs`` faults refire on every incarnation
            (the poison-epoch path); rate faults always redraw.
    """

    kind: str
    rate: float = 0.0
    at_epochs: frozenset[int] | None = None
    worker: int | None = None
    persistent: bool = False

    def __post_init__(self) -> None:
        if self.kind not in GRID_FAULT_KINDS:
            raise ConfigError(
                f"unknown grid fault kind {self.kind!r} "
                f"(have: {', '.join(GRID_FAULT_KINDS)})"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigError(f"fault rate must be in [0, 1], got {self.rate}")
        if self.at_epochs is not None:
            object.__setattr__(self, "at_epochs", frozenset(self.at_epochs))
            if any(e < 0 for e in self.at_epochs):
                raise ConfigError("at_epochs indices must be >= 0")
        if self.worker is not None and self.worker < 0:
            raise ConfigError("worker index must be >= 0")


def default_grid_specs(intensity: float = 1.0) -> tuple[GridFaultSpec, ...]:
    """The stock chaos mix: mostly crashes, some garbled replies, rare
    hangs (hangs cost a full deadline each, so they stay cheapest)."""
    if intensity < 0:
        raise ConfigError(f"chaos intensity must be >= 0, got {intensity}")
    cap = 1.0 / len(GRID_FAULT_KINDS)
    return (
        GridFaultSpec("crash", rate=min(0.05 * intensity, cap)),
        GridFaultSpec("hang", rate=min(0.02 * intensity, cap)),
        GridFaultSpec("garble", rate=min(0.03 * intensity, cap)),
    )


@dataclass(frozen=True)
class GridFaultPlan:
    """A seeded, stateless schedule of worker faults.

    Like :class:`repro.perf.faults.FaultPlan`, decisions hash
    ``(seed, worker, epoch, incarnation)`` through crc32 into a uniform
    variate, so the schedule is platform-stable, picklable into workers,
    and independent per worker — faults on one shard never shift
    another's schedule.
    """

    seed: int
    specs: tuple[GridFaultSpec, ...]

    @classmethod
    def from_seed(cls, seed: int, intensity: float = 1.0) -> "GridFaultPlan":
        return cls(seed=seed, specs=default_grid_specs(intensity))

    def _unit(self, worker: int, epoch: int, incarnation: int) -> float:
        key = f"{self.seed}:{worker}:{epoch}:{incarnation}"
        return zlib.crc32(key.encode()) / 2**32

    def decide(self, worker: int, epoch: int, incarnation: int) -> str | None:
        """The fault (if any) this worker exhibits on this epoch advance.

        ``incarnation`` counts restarts of the worker: exact-epoch faults
        fire on the first incarnation only unless ``persistent``; rate
        faults draw fresh per incarnation so retries normally succeed.
        """
        for spec in self.specs:
            if spec.at_epochs is None:
                continue
            if spec.worker is not None and spec.worker != worker:
                continue
            if epoch in spec.at_epochs and (spec.persistent or incarnation == 0):
                return spec.kind
        u = self._unit(worker, epoch, incarnation)
        edge = 0.0
        for spec in self.specs:
            if spec.at_epochs is not None:
                continue
            if spec.worker is not None and spec.worker != worker:
                continue
            edge += spec.rate
            if u < edge:
                return spec.kind
        return None


@dataclass(frozen=True)
class Supervision:
    """Supervisor policy knobs.

    Attributes:
        deadline: seconds a worker may take to answer one round-trip
            before it is declared hung.
        restart_budget: worker restarts one host may spend before it
            degrades to serial semantics.
        poison_limit: consecutive failures on one epoch before the shard
            is adopted in-process instead of restarted again.
        backoff_base: first restart's backoff sleep; doubles per
            consecutive failure on the same epoch.
        backoff_cap: upper bound on any single backoff sleep.
        host_restart_budget: under a host tier, how many times one
            degraded host is resurrected from its slots' journals
            before it is left degraded-but-correct.
    """

    deadline: float = 30.0
    restart_budget: int = 8
    poison_limit: int = 3
    backoff_base: float = 0.05
    backoff_cap: float = 1.0
    host_restart_budget: int = 4

    def __post_init__(self) -> None:
        if self.deadline <= 0:
            raise ConfigError(f"deadline must be > 0, got {self.deadline}")
        if self.restart_budget < 0:
            raise ConfigError("restart_budget must be >= 0")
        if self.poison_limit < 1:
            raise ConfigError("poison_limit must be >= 1")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ConfigError("backoff values must be >= 0")
        if self.host_restart_budget < 0:
            raise ConfigError("host_restart_budget must be >= 0")

    def policy(self) -> BackoffPolicy:
        """The restart ladder as the shared retry shape.

        The grid supervisor and the serve client both sleep through
        :class:`~repro.util.backoff.BackoffPolicy`, so the ladders cannot
        drift apart; the values recorded in the event log are exactly
        ``policy().delay(attempt)``.
        """
        return BackoffPolicy(
            base=self.backoff_base, factor=2.0, cap=self.backoff_cap
        )


#: Keys every well-formed epoch report carries (garble detection).
_REPORT_KEYS = frozenset(
    {
        "spawned",
        "deaths",
        "killed",
        "bounds",
        "start_now",
        "end_now",
        "wall",
        "cache_hits",
        "cache_misses",
    }
)




@dataclass
class _WorkerState:
    """Supervisor-side bookkeeping for one worker slot."""

    #: Global worker id: the chaos link id and the id events report.
    index: int
    host: "_Host"
    entries: list[tuple["NodeSpec", int]]
    transport: Any = None
    incarnation: int = 0
    #: Every epoch ever dispatched to this shard, in order.
    journal: list[tuple[list, int, float]] = field(default_factory=list)
    #: In-process shard once adopted (poison epoch or degrade).
    shard: Shard | None = None


@dataclass
class _Host:
    """One failure domain: its slots, worker restart budget and degrade
    flag. Under a host tier a degraded host is resurrected whole."""

    index: int
    slots: list[_WorkerState] = field(default_factory=list)
    #: Worker restarts charged to this host since it was (re)built.
    restarts: int = 0
    degraded: bool = False
    #: Times this host was resurrected.
    resurrections: int = 0


class SupervisedShardedEngine:
    """Persistent shard workers under a supervision tree.

    Nodes partition over worker slots grouped into hosts (see the module
    docstring for the mapping). Every round-trip is deadline-checked and
    every failure walks the detect → restart/replay → adopt → degrade
    ladder, so ``Grid.run_for`` never deadlocks and never aborts on a
    worker death. ``hosts`` (None = one host, no host tier) adds the
    top rung: a degraded host is resurrected from its slots' journals.
    """

    def __init__(
        self,
        specs: list["NodeSpec"],
        tick: float,
        seed: int,
        workers: int,
        *,
        hosts: int | None = None,
        chaos: GridFaultPlan | None = None,
        config: Supervision | None = None,
        transport: str = "fork",
        netchaos: "NetChaosPlan | None" = None,
    ) -> None:
        if workers < 1:
            raise SimulationError(
                f"supervised engine needs >= 1 worker, got {workers}"
            )
        if hosts is not None and hosts < 1:
            raise SimulationError(f"hosts must be >= 1, got {hosts}")
        #: An engine with a host tier reports itself as the fleet.
        self.name = "supervised" if hosts is None else "fleet"
        self.hosts = None if hosts is None else min(hosts, len(specs))
        self.config = config if config is not None else Supervision()
        self.chaos = chaos
        self.netchaos = netchaos
        self.tick = tick
        self.transport_name = transport
        self._policy = self.config.policy()
        #: Shared-nothing: no in-process machines are exposed, even for
        #: adopted shards (the public surface must not depend on the
        #: failure history).
        self.nodes: dict[str, Any] = {}
        self.messages = 0
        #: Deterministic recovery log (no wall-times, no OS exit codes).
        self.events: list[dict[str, Any]] = []
        self.stats = supervision_stats()
        #: Links of resurrected hosts' old slots, kept for the counters.
        self._retired: list = []
        self._budget_spent = False
        n_hosts = self.hosts or 1
        per_host = max(1, workers // n_hosts)
        self._hosts = [_Host(index=h) for h in range(n_hosts)]
        self._states: list[_WorkerState] = []
        self._node_slot: dict[str, _WorkerState] = {}
        entries = [(spec, seed + i) for i, spec in enumerate(specs)]
        for host in self._hosts:
            members = entries[host.index::n_hosts]
            n_slots = min(per_host, len(members))
            for slot in range(n_slots):
                state = _WorkerState(
                    index=host.index * per_host + slot,
                    host=host,
                    entries=members[slot::n_slots],
                )
                state.transport = self._link(state)
                host.slots.append(state)
                self._states.append(state)
                for spec, _ in state.entries:
                    self._node_slot[spec.name] = state
        self.workers = len(self._states)
        self._start(self._states)

    # -- worker lifecycle ---------------------------------------------------
    def _link(self, state: _WorkerState):
        return make_transport(
            self.transport_name, state.index, state.entries, self.tick,
            self.chaos, self.netchaos,
        )

    def _start(self, states: list[_WorkerState]) -> None:
        """Spawn each slot's agent from its journal, then take every
        ready handshake; a startup failure is recovered at once."""
        for state in states:
            state.transport.spawn(list(state.journal), state.incarnation)
        for state in states:
            try:
                self._await_ready(state, replayed=len(state.journal))
            except WorkerFailure as fail:
                self._recover(state, fail, need_report=False)

    def _await_ready(self, state: _WorkerState, replayed: int) -> None:
        # Replay costs real simulation work; scale the handshake deadline
        # with the journal length so resurrection is never misread as a
        # hang.
        timeout = max(self.config.deadline, 1.0) * (1 + replayed)
        payload = self._recv(state, timeout)
        if payload != "ready":
            raise WorkerFailure(
                f"grid worker {state.index} sent a bad ready handshake: "
                f"{payload!r}",
                worker=state.index,
                kind="garbled",
            )

    # -- guarded round-trips ------------------------------------------------
    def _send(self, state: _WorkerState, msg: tuple) -> None:
        state.transport.send(msg)
        self.messages += 1

    def _recv(self, state: _WorkerState, timeout: float) -> Any:
        """One reply under a deadline. The transport enforces liveness
        and shape; this layer interprets the protocol tags."""
        tag, payload = state.transport.recv(timeout)
        if tag == "error":
            # A worker-side programming error, not a process failure:
            # surface it, don't "recover" it.
            raise SimulationError(f"grid worker failed: {payload}")
        if tag != "ok":
            raise WorkerFailure(
                f"grid worker {state.index} sent unknown tag {tag!r}",
                worker=state.index,
                kind="garbled",
            )
        return payload

    def _recv_report(self, state: _WorkerState) -> dict[str, Any]:
        payload = self._recv(state, self.config.deadline)
        if not (isinstance(payload, dict) and _REPORT_KEYS <= payload.keys()):
            raise WorkerFailure(
                f"grid worker {state.index} sent a garbled epoch report",
                worker=state.index,
                kind="garbled",
            )
        return payload

    # -- the recovery ladder ------------------------------------------------
    def _log(self, host: _Host, event: dict[str, Any]) -> None:
        """Append one recovery event, tagged with its host when the
        engine has a host tier."""
        if self.hosts is not None:
            event["host"] = host.index
        self.events.append(event)

    def _note_failure(
        self, state: _WorkerState, fail: WorkerFailure, epoch: int
    ) -> None:
        self.stats["failures"][fail.kind] += 1
        self._log(
            state.host,
            {"event": fail.kind, "worker": fail.worker, "epoch": epoch},
        )

    def _degrade(self, state: _WorkerState, epoch: int) -> None:
        host = state.host
        if not host.degraded:
            host.degraded = True
            self.stats["degraded"] = True
            self._log(
                host, {"event": "degrade", "worker": state.index, "epoch": epoch}
            )

    def _adopt(
        self, state: _WorkerState, need_report: bool, reason: str
    ) -> dict[str, Any] | None:
        """Resurrect the shard in-process and retire its worker slot.

        Rebuilds from (spec, seed) and replays the journal — every epoch
        if the journal is fully collected, all but the last when the
        failing epoch's report is still owed (it is then advanced live
        and its report returned).
        """
        state.transport.reap()
        shard = Shard(state.entries, self.tick)
        replay = state.journal[:-1] if need_report else state.journal
        for commands, n_ticks, frac in replay:
            shard.advance(commands, n_ticks, frac)
        state.shard = shard
        self.stats["replayed_epochs"] += len(replay)
        self.stats["adopted_shards"] += 1
        self._log(
            state.host,
            {
                "event": "adopt",
                "worker": state.index,
                "epoch": len(replay),
                "reason": reason,
                "replayed": len(replay),
            },
        )
        if need_report:
            return shard.advance(*state.journal[-1])
        return None

    def _recover(
        self, state: _WorkerState, fail: WorkerFailure, need_report: bool
    ) -> dict[str, Any] | None:
        """Walk the ladder for one failed round-trip.

        Restart with journal replay under exponential backoff; adopt the
        shard in-process after ``poison_limit`` consecutive failures on
        this same epoch; degrade the slot's host once its restart budget
        is spent. Always returns a usable epoch report when one is owed
        — this method cannot fail the run.
        """
        host = state.host
        epoch = len(state.journal) - 1 if need_report else len(state.journal)
        attempts = 0
        while True:
            attempts += 1
            self._note_failure(state, fail, epoch)
            state.transport.reap()
            if attempts >= self.config.poison_limit:
                self._log(
                    host,
                    {
                        "event": "poison",
                        "worker": state.index,
                        "epoch": epoch,
                        "attempts": attempts,
                    },
                )
                return self._adopt(state, need_report, reason="poison")
            if host.restarts >= self.config.restart_budget:
                self._degrade(state, epoch)
                return self._adopt(state, need_report, reason="degrade")
            backoff = self._policy.sleep(attempts)
            host.restarts += 1
            self.stats["restarts"] += 1
            state.incarnation += 1
            replay = state.journal[:-1] if need_report else list(state.journal)
            self.stats["replayed_epochs"] += len(replay)
            self._log(
                host,
                {
                    "event": "restart",
                    "worker": state.index,
                    "epoch": epoch,
                    "incarnation": state.incarnation,
                    "replayed": len(replay),
                    "backoff": backoff,
                },
            )
            try:
                state.transport.spawn(replay, state.incarnation)
                self._await_ready(state, replayed=len(replay))
                if not need_report:
                    return None
                self._send(state, ("advance",) + state.journal[-1])
                return self._recv_report(state)
            except WorkerFailure as next_fail:
                fail = next_fail

    def _restart_host(self, host: _Host) -> None:
        """The host tier: rebuild a degraded host's slots as fresh agents
        replaying their own journals. Incarnations restart at 0 while
        the epoch counters start past the replayed history, so chaos
        that already fired never refires. Past ``host_restart_budget``
        the host stays degraded-but-correct."""
        epoch = len(host.slots[0].journal)
        if host.resurrections >= self.config.host_restart_budget:
            if not self._budget_spent:
                self._budget_spent = True
                self._log(host, {"event": "fleet-degrade", "epoch": epoch})
            return
        host.resurrections += 1
        host.restarts = 0
        host.degraded = False
        self.stats["host_restarts"] += 1
        self.stats["degraded"] = self.degraded
        self._log(
            host,
            {
                "event": "host-restart",
                "epoch": epoch,
                "replayed": epoch,
                "restarts": host.resurrections,
            },
        )
        _close_links([state.transport for state in host.slots])
        for state in host.slots:
            self._retired.append(state.transport)
            state.transport = self._link(state)
            state.incarnation = 0
            state.shard = None
        self._start(host.slots)

    # -- engine protocol ----------------------------------------------------
    def advance(
        self, commands: list, n_ticks: int, frac: float
    ) -> list[dict[str, Any]]:
        """Journal the epoch per slot, ship it to every live worker, then
        collect every report, recovering as needed.

        Every send goes out before the first recv, so all shards (on
        every host) advance concurrently; adopted shards advance in the
        collect loop, overlapping the workers. Reports have disjoint
        job/node keys; order is immaterial to the grid's merge. Degraded
        hosts are resurrected after the collect: they still returned
        correct serial reports for this epoch.
        """
        for host in self._hosts:
            if host.degraded:
                # Serial semantics for the host's every shard from here.
                for state in host.slots:
                    if state.shard is None:
                        self._adopt(state, need_report=False, reason="degrade")
        by_slot: dict[int, list] = {}
        for cmd in commands:
            by_slot.setdefault(self._node_slot[cmd.node].index, []).append(cmd)
        for state in self._states:
            state.journal.append((by_slot.get(state.index, []), n_ticks, frac))
        send_failures: dict[int, WorkerFailure] = {}
        for state in self._states:
            if state.shard is None:
                try:
                    self._send(state, ("advance",) + state.journal[-1])
                except WorkerFailure as fail:
                    send_failures[state.index] = fail
        reports: list[dict[str, Any]] = []
        for state in self._states:
            if state.shard is not None:
                reports.append(state.shard.advance(*state.journal[-1]))
                continue
            fail = send_failures.get(state.index)
            if fail is None:
                try:
                    reports.append(self._recv_report(state))
                    continue
                except WorkerFailure as recv_fail:
                    fail = recv_fail
            reports.append(self._recover(state, fail, need_report=True))
        if self.hosts is not None:
            for host in self._hosts:
                if host.degraded:
                    self._restart_host(host)
        return reports

    def process_of(self, job_id: int) -> None:
        return None

    def snapshot(self, node: str) -> dict[str, Any]:
        return self.snapshot_many([node])[node]

    def snapshot_many(self, names: list[str]) -> dict[str, dict[str, Any]]:
        """Snapshots for several nodes: one message per worker, not one
        per node. A failed worker is adopted and serves from the replayed
        shard — the journal is fully collected between epochs, so
        adoption resurrects the exact current state."""
        by_slot: dict[int, tuple[_WorkerState, list[str]]] = {}
        for name in names:
            state = self._node_slot.get(name)
            if state is None:
                raise SimulationError(f"no node {name!r}")
            by_slot.setdefault(state.index, (state, []))[1].append(name)
        out: dict[str, dict[str, Any]] = {}
        for state, group in by_slot.values():
            if state.shard is None:
                try:
                    self._send(state, ("snapshot", group))
                    out.update(self._recv(state, self.config.deadline))
                    continue
                except WorkerFailure as fail:
                    self._note_failure(state, fail, epoch=len(state.journal))
                    self._adopt(state, need_report=False, reason="snapshot")
            out.update(state.shard.snapshot_many(group))
        return out

    # -- introspection / lifecycle ------------------------------------------
    @property
    def degraded(self) -> bool:
        """Some host is serving every one of its shards in-process."""
        return any(host.degraded for host in self._hosts)

    def _links(self) -> list:
        return [s.transport for s in self._states] + self._retired

    @property
    def bytes_sent(self) -> int:
        return sum(t.bytes_sent for t in self._links())

    @property
    def bytes_received(self) -> int:
        return sum(t.bytes_received for t in self._links())

    @property
    def _procs(self) -> list:
        """Live worker process handles (leak tests poke at these)."""
        return [
            s.transport.proc
            for s in self._states
            if s.transport.proc is not None
        ]

    def live_workers(self) -> int:
        """Worker slots still served by a live agent (not adopted)."""
        return sum(
            1
            for s in self._states
            if s.shard is None and s.transport.is_alive()
        )

    def fenced_replies(self) -> int:
        """Stale replies rejected by their incarnation/epoch fence.

        Each one is a split-brain straggler — an answer computed behind a
        healed partition by a superseded incarnation — that without
        fencing would have been merged as a second application of its
        epoch."""
        return sum(t.fenced_rejected for t in self._links())

    def net_faults(self) -> int:
        """Round-trips the net-chaos plan faulted across all links."""
        return sum(t.net_faults for t in self._links())

    def close(self) -> None:
        _close_links([s.transport for s in self._states])


def _close_links(links: list) -> None:
    """Ask every agent to exit first, then join them: teardown costs one
    grace period, not one per worker."""
    for link in links:
        link.request_close()
    for link in links:
        link.finish_close(grace=2.0)
