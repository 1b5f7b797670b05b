"""Pluggable shard transports: one epoch round-trip, three fabrics.

The sharded engines (:mod:`repro.sim.parallel`, :mod:`repro.sim.supervisor`)
speak one tiny protocol per worker slot — ``("advance", commands, n_ticks,
frac)`` / ``("snapshot", [names])`` / ``("close",)`` in, ``("ok", payload)``
or ``("error", text)`` out, with ``("ok", "ready")`` as the post-build
handshake. This module abstracts *how* those tuples travel, mirroring the
process/SSH/cluster ``Pool`` ladder of vusec's instrumentation-infra:

* :class:`InprocTransport` — no process at all. The shard lives in the
  caller; messages are zero-copy Python objects. The serial baseline of
  the transport axis, and the cheapest way to run the chaos ladder
  deterministically in tests.
* :class:`ForkTransport` — today's ``multiprocessing`` pipe, with pickled
  tuples sent via ``send_bytes`` so every message's exact wire size is
  accounted.
* :class:`SocketTransport` — a per-worker host-agent process on the other
  end of one persistent TCP/Unix stream socket, speaking the ``"TTSV"``
  length-prefixed binary frames of :mod:`repro.sim.shardwire` instead of
  pickle. Workload specs are interned per connection: the full pickled
  workload crosses the wire once, later spawns reference it by id — the
  epoch round-trip stays O(commands), not O(workload bytes).

Every transport enforces the same failure taxonomy: a round-trip against
a dead peer raises :class:`~repro.errors.WorkerFailure` ``kind="crash"``,
a missed deadline ``"hang"``, an unparseable reply ``"garbled"``, a
message lost to a network fault ``"unreachable"``, and any operation
after :meth:`ShardTransport.close` ``"closed"`` (so a send racing engine
teardown is a typed event, not a stray ``BrokenPipeError``). Chaos
(:class:`~repro.sim.supervisor.GridFaultPlan`) runs inside the agent for
process transports and is emulated deterministically by the in-process
transport, so fault schedules and supervisor event logs are
transport-invariant.

Two concerns ride on the round-trip uniformly across fabrics, both
implemented once in :class:`ShardTransport` around the subclasses' raw
``_spawn_raw``/``_send_raw``/``_recv_raw`` primitives:

* **Network chaos** (:class:`~repro.sim.netchaos.NetChaosPlan`): the
  parent-side message layer is where partitions bite, so the base class
  consults the plan per (worker link, epoch, attempt) before a request
  touches the wire. A partitioned or dropped request is simply never
  sent; the reply deadline collapses into
  ``WorkerFailure(kind="unreachable")``. A half-open or reordered link
  delivers the request — the agent *applies* the epoch — but the genuine
  reply is stranded parent-side in a stash, surfacing only after the
  link heals (the split-brain shape).

* **Epoch fencing**: every agent reply carries ``(incarnation, epoch)``
  and the parent tracks the one fence the in-flight round-trip may
  match. Stashed or duplicated replies from a stale incarnation are
  rejected and counted (``fenced_rejected``) instead of being merged, so
  a healed partition can never double-apply an epoch.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import socket
import tempfile
import time
from typing import TYPE_CHECKING, Any

from repro.errors import SimulationError, WireError, WorkerFailure
from repro.serve.protocol import MessageReader
from repro.sim.parallel import TRANSPORT_NAMES, PreemptCmd, Shard, SpawnCmd
from repro.sim.shardwire import (
    MSG_SHARD_ADVANCE,
    MSG_SHARD_CLOSE,
    MSG_SHARD_ERR,
    MSG_SHARD_OK,
    MSG_SHARD_SNAPSHOT,
    decode_shard,
    pack_fenced,
    pack_shard,
    split_fenced,
)

if TYPE_CHECKING:
    from repro.sim.grid import NodeSpec
    from repro.sim.netchaos import NetChaosPlan
    from repro.sim.supervisor import GridFaultPlan


#: Exit code of a chaos-crashed worker (deterministic, unlike a signal).
CRASH_EXIT = 17

#: Net-fault kinds where the request is lost before it touches the wire.
_LOST_REQUEST = frozenset({"partition", "drop"})

#: Net-fault kinds where the request lands but the reply is stranded.
_LOST_REPLY = frozenset({"half_open", "reorder"})


def _hang() -> None:  # pragma: no cover - runs in a worker process
    """Simulate a wedged worker: ignore SIGTERM, stop replying."""
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    while True:
        time.sleep(3600)


# -- the agent loop (runs in the worker, whatever the fabric) -----------------

def _agent_loop(
    channel,
    entries: list[tuple["NodeSpec", int]],
    tick: float,
    journal: list[tuple[list, int, float]],
    chaos: "GridFaultPlan | None",
    worker_id: int,
    incarnation: int,
) -> None:  # pragma: no cover - runs in a worker process
    """Shard-agent loop: rebuild, replay, then serve epochs.

    Identical across pipe and socket fabrics — only the channel differs.
    Journal replay happens silently before the ready handshake
    (resurrection); chaos fires at the top of each *live* advance with the
    epoch counter starting past the replayed entries, so fault schedules
    line up with the supervisor's global epoch numbering and replay itself
    is never faulted.

    Every reply is fenced with ``(incarnation, reply epoch)`` — captured
    *before* dispatch, so an advance that raises still fences with the
    epoch it was answering, and the parent can tell a genuine error reply
    from a stale straggler.
    """
    shard = Shard(entries, tick)
    for commands, n_ticks, frac in journal:
        shard.advance(commands, n_ticks, frac)
    epoch = len(journal)
    channel.send(("ok", "ready", incarnation, epoch))
    while True:
        try:
            msg = channel.recv()
        except EOFError:
            break
        tag = msg[0]
        if tag == "close":
            break
        reply_epoch = epoch
        try:
            if tag == "advance":
                _, commands, n_ticks, frac = msg
                fault = (
                    chaos.decide(worker_id, epoch, incarnation)
                    if chaos is not None
                    else None
                )
                if fault == "crash":
                    os._exit(CRASH_EXIT)
                if fault == "hang":
                    _hang()
                epoch += 1
                if fault == "garble":
                    channel.send(
                        ("ok", {"garbled": reply_epoch}, incarnation,
                         reply_epoch)
                    )
                    continue
                channel.send(
                    ("ok", shard.advance(commands, n_ticks, frac),
                     incarnation, reply_epoch)
                )
            elif tag == "snapshot":
                channel.send(
                    ("ok", shard.snapshot_many(msg[1]), incarnation,
                     reply_epoch)
                )
            else:
                channel.send(
                    ("error", f"unknown message {tag!r}", incarnation,
                     reply_epoch)
                )
        except Exception as exc:
            channel.send(
                ("error", f"{type(exc).__name__}: {exc}", incarnation,
                 reply_epoch)
            )
    channel.close()


class _PipeChannel:  # pragma: no cover - runs in a worker process
    """Agent side of the fork transport: pickled tuples over a pipe."""

    def __init__(self, conn) -> None:
        self.conn = conn

    def send(self, msg: tuple) -> None:
        try:
            self.conn.send_bytes(pickle.dumps(msg))
        except OSError:
            # Half-closed parent (teardown race, partition heal): the
            # reply is undeliverable; dropping it lets the loop reach
            # the EOF on its next recv and exit cleanly instead of
            # dying with a BrokenPipeError traceback.
            pass

    def recv(self) -> tuple:
        try:
            return pickle.loads(self.conn.recv_bytes())
        except (EOFError, OSError):
            raise EOFError from None

    def close(self) -> None:
        self.conn.close()


class _SocketChannel:  # pragma: no cover - runs in a worker process
    """Agent side of the socket transport: TTSV frames, interned specs."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.reader = MessageReader()
        self.queue: list[bytes] = []
        self._intern: dict[int, Any] = {}

    def send(self, msg: tuple) -> None:
        tag, payload, inc, epoch = msg
        msg_type = MSG_SHARD_OK if tag == "ok" else MSG_SHARD_ERR
        try:
            self.sock.sendall(pack_fenced(msg_type, inc, epoch, payload))
        except OSError:
            pass  # half-closed parent: see _PipeChannel.send

    def recv(self) -> tuple:
        while not self.queue:
            try:
                data = self.sock.recv(1 << 16)
            except OSError:
                raise EOFError from None
            if not data:
                raise EOFError
            self.queue.extend(self.reader.feed(data))
        msg_type, value = decode_shard(self.queue.pop(0))
        if msg_type == MSG_SHARD_ADVANCE:
            for ref, blob in value["intern"].items():
                self._intern[ref] = pickle.loads(blob)
            commands = []
            for cmd in value["cmds"]:
                if cmd[0] == "spawn":
                    _, job_id, node, command, user, limit, ref = cmd
                    commands.append(
                        SpawnCmd(
                            job_id=job_id,
                            node=node,
                            command=command,
                            user=user,
                            workload=self._intern[ref],
                            wallclock_limit=limit,
                        )
                    )
                else:
                    commands.append(PreemptCmd(job_id=cmd[1], node=cmd[2]))
            return ("advance", commands, value["n_ticks"], value["frac"])
        if msg_type == MSG_SHARD_SNAPSHOT:
            return ("snapshot", value)
        if msg_type == MSG_SHARD_CLOSE:
            return ("close",)
        raise EOFError  # a reply type from the parent: broken peer

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


def _fork_agent_main(
    conn, entries, tick, journal, chaos, worker_id, incarnation
) -> None:  # pragma: no cover - runs in a worker process
    _agent_loop(
        _PipeChannel(conn), entries, tick, journal, chaos, worker_id,
        incarnation,
    )


def _socket_agent_main(
    family, address, entries, tick, journal, chaos, worker_id, incarnation
) -> None:  # pragma: no cover - runs in a worker process
    # Connect before building the shard: the parent's accept is then
    # near-instant, and replay cost falls entirely under the engine's
    # replay-scaled ready deadline.
    sock = socket.socket(family, socket.SOCK_STREAM)
    sock.connect(address)
    _agent_loop(
        _SocketChannel(sock), entries, tick, journal, chaos, worker_id,
        incarnation,
    )


# -- parent-side transports ---------------------------------------------------

class ShardTransport:
    """One worker slot's link: spawn/replay, guarded round-trips, teardown.

    Subclasses implement the fabric through ``_spawn_raw``, ``_send_raw``
    and ``_recv_raw`` (raw replies are fenced 4-tuples ``(tag, payload,
    incarnation, epoch)``); the failure taxonomy, byte/message
    accounting, the closed-state contract, network-chaos injection and
    epoch fencing are shared and live in the public :meth:`spawn` /
    :meth:`send` / :meth:`recv` wrappers. ``worker_id`` is the *global*
    worker index (``host * slots_per_host + slot`` under a host tier)
    used in failure messages and as the chaos *link* id.
    """

    kind = "base"

    def __init__(
        self,
        worker_id: int,
        entries: list[tuple["NodeSpec", int]],
        tick: float,
        chaos: "GridFaultPlan | None" = None,
        netchaos: "NetChaosPlan | None" = None,
    ) -> None:
        self.worker_id = worker_id
        self.entries = entries
        self.tick = tick
        self.chaos = chaos
        self.netchaos = netchaos
        self.closed = False
        self.bytes_sent = 0
        self.bytes_received = 0
        self.messages = 0
        self.proc: Any = None
        # -- fencing state ----------------------------------------------------
        #: Incarnation of the agent currently holding this slot.
        self.incarnation = 0
        #: Replies rejected because their fence was stale (split-brain
        #: stragglers that would otherwise double-apply an epoch).
        self.fenced_rejected = 0
        #: Round-trips the net-chaos plan faulted on this link.
        self.net_faults = 0
        #: The one ``(incarnation, epoch)`` the in-flight reply may carry.
        self._expect: tuple[int, int] = (0, 0)
        #: Next advance's global epoch number (journal length + live sends).
        self._net_epoch = 0
        # Attempt axis of the heal schedule: how many times the same
        # epoch's round-trip has been tried on this link. Survives
        # respawns — a partition heals after `duration` *attempts*, and
        # every attempt rides a fresh incarnation.
        self._attempt_epoch = -1
        self._attempt_count = 0
        #: Fault armed by :meth:`send`, resolved by the matching recv.
        self._pending_fault: tuple[str, int] | None = None
        #: Replies stranded by a cut link, delivered (and fence-rejected)
        #: after it heals. Parent-side, so it survives agent respawns —
        #: exactly like bytes buffered in a real healed TCP stream.
        self._stash: list[tuple] = []

    # -- failure constructors -----------------------------------------------
    def _closed_failure(self) -> WorkerFailure:
        return WorkerFailure(
            f"grid worker {self.worker_id} transport is closed",
            worker=self.worker_id,
            kind="closed",
        )

    def _crash_failure(self, detail: str = "died") -> WorkerFailure:
        return WorkerFailure(
            f"grid worker {self.worker_id} {detail}"
            + (
                f" (exitcode {self.exitcode})"
                if self.exitcode is not None
                else ""
            ),
            worker=self.worker_id,
            kind="crash",
            exitcode=self.exitcode,
        )

    def _hang_failure(self, timeout: float) -> WorkerFailure:
        return WorkerFailure(
            f"grid worker {self.worker_id} missed its {timeout:g}s deadline",
            worker=self.worker_id,
            kind="hang",
        )

    def _garbled_failure(self, detail: str) -> WorkerFailure:
        return WorkerFailure(
            f"grid worker {self.worker_id} {detail}",
            worker=self.worker_id,
            kind="garbled",
        )

    def _unreachable_failure(
        self, net_kind: str, epoch: int, timeout: float
    ) -> WorkerFailure:
        return WorkerFailure(
            f"grid worker {self.worker_id} is unreachable "
            f"(net {net_kind} on epoch {epoch}, {timeout:g}s deadline)",
            worker=self.worker_id,
            kind="unreachable",
        )

    # -- the contract ---------------------------------------------------------
    def spawn(self, replay: list, incarnation: int) -> None:
        """(Re)start the agent, resurrecting the shard from ``replay``.

        Sets the fence the ready handshake must carry; the stranded-reply
        stash deliberately survives into the new incarnation (that is the
        split-brain scenario fencing exists for).
        """
        self.incarnation = incarnation
        self._net_epoch = len(replay)
        self._expect = (incarnation, len(replay))
        self._pending_fault = None
        self._spawn_raw(replay, incarnation)

    def send(self, msg: tuple) -> None:
        """Send one request, consulting the net-chaos plan first.

        A faulted advance may never touch the wire at all (partition /
        drop): the request is lost exactly as a cut link loses it, and
        the paired :meth:`recv` raises ``kind="unreachable"`` instead of
        waiting out the deadline.
        """
        if self.closed:
            raise self._closed_failure()
        tag = msg[0]
        if tag == "advance":
            epoch = self._net_epoch
            self._expect = (self.incarnation, epoch)
            self._net_epoch = epoch + 1
            fault = self._net_decide(epoch)
            if fault is not None:
                self.net_faults += 1
                self._pending_fault = (fault, epoch)
                if fault in _LOST_REQUEST:
                    return
        elif tag == "snapshot":
            self._expect = (self.incarnation, self._net_epoch)
        self._send_raw(msg)

    def recv(self, timeout: float) -> tuple[str, Any]:
        """One reply ``(tag, payload)`` under a deadline, fence-checked.

        Replies whose ``(incarnation, epoch)`` fence does not match the
        in-flight round-trip — stragglers from a healed cut, duplicates,
        answers computed by a superseded incarnation — are discarded and
        counted in ``fenced_rejected``, never surfaced to the engine.
        """
        if self.closed:
            raise self._closed_failure()
        reply = self._next_reply(timeout)
        while (reply[2], reply[3]) != self._expect:
            self.fenced_rejected += 1
            reply = self._next_reply(timeout)
        return reply[0], reply[1]

    def _net_decide(self, epoch: int) -> str | None:
        """One heal-schedule step: the fault (if any) for this attempt."""
        if self.netchaos is None:
            return None
        if self._attempt_epoch != epoch:
            self._attempt_epoch = epoch
            self._attempt_count = 0
        attempt = self._attempt_count
        self._attempt_count += 1
        return self.netchaos.decide(self.worker_id, epoch, attempt)

    def _next_reply(self, timeout: float) -> tuple:
        """Next raw reply: resolve the armed fault, then stash, then wire."""
        fault = self._pending_fault
        if fault is not None:
            self._pending_fault = None
            net_kind, epoch = fault
            if net_kind in _LOST_REQUEST:
                raise self._unreachable_failure(net_kind, epoch, timeout)
            if net_kind in _LOST_REPLY:
                # The agent got the request and applied the epoch, but
                # the reply is stranded behind the cut: capture it for
                # post-heal delivery, then fail the round-trip.
                try:
                    self._stash.append(self._recv_raw(timeout))
                except WorkerFailure:
                    pass  # the agent also died; the cut adds nothing
                raise self._unreachable_failure(net_kind, epoch, timeout)
            if net_kind == "duplicate":
                reply = self._recv_raw(timeout)
                self._stash.append(reply)
                return reply
            # "delay": injected link latency; at or past the deadline it
            # is indistinguishable from a partition.
            latency = self.netchaos.latency_of(self.worker_id, epoch)
            if latency >= timeout:
                raise self._unreachable_failure(net_kind, epoch, timeout)
            if latency > 0.0:
                time.sleep(latency)
        if self._stash:
            return self._stash.pop(0)
        return self._recv_raw(timeout)

    # -- fabric primitives ----------------------------------------------------
    def _spawn_raw(self, replay: list, incarnation: int) -> None:
        raise NotImplementedError

    def _send_raw(self, msg: tuple) -> None:
        raise NotImplementedError

    def _recv_raw(self, timeout: float) -> tuple:
        """One fenced reply ``(tag, payload, incarnation, epoch)``."""
        raise NotImplementedError

    def is_alive(self) -> bool:
        return self.proc is not None and self.proc.is_alive()

    @property
    def exitcode(self) -> int | None:
        return self.proc.exitcode if self.proc is not None else None

    def reap(self) -> None:
        """Tear the agent down for good (terminate → kill ladder); keep
        whatever is needed to :meth:`spawn` a fresh incarnation."""
        raise NotImplementedError

    def request_close(self) -> None:
        """Politely ask the agent to exit; mark the transport closed."""
        self.closed = True

    def finish_close(self, grace: float = 5.0) -> None:
        """Join (then escalate) and release every OS resource."""

    def close(self, grace: float = 5.0) -> None:
        """Full teardown; never raises a transport error.

        Teardown runs on failure paths — an ECONNRESET or BrokenPipeError
        from a half-closed peer during the BYE exchange must not mask the
        original :class:`WorkerFailure` the caller is unwinding with.
        """
        try:
            self.request_close()
        except (WorkerFailure, ConnectionError, OSError):
            pass
        self.finish_close(grace)

    # shared process teardown helper
    def _end_proc(self, grace: float) -> None:
        proc = self.proc
        if proc is None:
            return
        proc.join(timeout=grace)
        if proc.is_alive():  # pragma: no cover - hung worker
            proc.terminate()
            proc.join(timeout=1.0)
        if proc.is_alive():  # pragma: no cover - SIGTERM ignored
            proc.kill()
            proc.join()
        self.proc = None


class InprocTransport(ShardTransport):
    """The shard in the caller's process: serial, zero-copy, zero bytes.

    Chaos is emulated deterministically — the same
    ``decide(worker, epoch, incarnation)`` schedule yields the same
    failure kinds at the same epochs as a process transport would, minus
    the OS: a "crash" marks the slot dead and raises, a "hang" raises
    without sleeping out a deadline, a "garble" returns the same
    malformed reply the real agent sends. Net chaos needs no emulation
    at all: it lives entirely in the base class, so the in-process
    transport exhibits byte-for-byte the same unreachable/stale-reply
    schedule as the process fabrics.
    """

    kind = "inproc"

    def __init__(self, worker_id, entries, tick, chaos=None,
                 netchaos=None) -> None:
        super().__init__(worker_id, entries, tick, chaos, netchaos)
        self.shard: Shard | None = None
        self._epoch = 0
        self._dead = False
        self._inbox: list[tuple] = []
        self._pending: list[tuple] = []

    def _spawn_raw(self, replay: list, incarnation: int) -> None:
        self.shard = Shard(self.entries, self.tick)
        for commands, n_ticks, frac in replay:
            self.shard.advance(commands, n_ticks, frac)
        self._epoch = len(replay)
        self._dead = False
        self._inbox = []
        self._pending = [("ok", "ready", incarnation, len(replay))]

    def _send_raw(self, msg: tuple) -> None:
        if self._dead:
            raise self._crash_failure()
        self._inbox.append(msg)
        self.messages += 1

    def _recv_raw(self, timeout: float) -> tuple:
        if self._pending:
            return self._pending.pop(0)
        if self._dead:
            raise self._crash_failure()
        if not self._inbox:
            raise self._hang_failure(timeout)
        msg = self._inbox.pop(0)
        tag = msg[0]
        inc = self.incarnation
        # Fence with the pre-dispatch epoch, like the real agent loop: an
        # advance that raises must still answer the epoch it was asked.
        reply_epoch = self._epoch
        try:
            if tag == "advance":
                _, commands, n_ticks, frac = msg
                fault = (
                    self.chaos.decide(self.worker_id, reply_epoch, inc)
                    if self.chaos is not None
                    else None
                )
                if fault == "crash":
                    self._dead = True
                    raise self._crash_failure()
                if fault == "hang":
                    raise self._hang_failure(timeout)
                self._epoch = reply_epoch + 1
                if fault == "garble":
                    return ("ok", {"garbled": reply_epoch}, inc, reply_epoch)
                return (
                    "ok", self.shard.advance(commands, n_ticks, frac),
                    inc, reply_epoch,
                )
            if tag == "snapshot":
                return ("ok", self.shard.snapshot_many(msg[1]), inc,
                        reply_epoch)
            return ("error", f"unknown message {tag!r}", inc, reply_epoch)
        except WorkerFailure:
            raise
        except Exception as exc:
            return ("error", f"{type(exc).__name__}: {exc}", inc,
                    reply_epoch)

    def is_alive(self) -> bool:
        return self.shard is not None and not self._dead and not self.closed

    @property
    def exitcode(self) -> int | None:
        return CRASH_EXIT if self._dead else None

    def reap(self) -> None:
        self.shard = None
        self._inbox = []
        self._pending = []

    def request_close(self) -> None:
        self.closed = True
        self.shard = None


class ForkTransport(ShardTransport):
    """A local agent process over a ``multiprocessing`` pipe.

    Messages are pickled tuples moved with ``send_bytes``/``recv_bytes``
    so the exact per-message wire size is accounted (``bytes_sent`` /
    ``bytes_received``), byte-identical in content to the pre-transport
    pipe protocol.
    """

    kind = "fork"

    def __init__(self, worker_id, entries, tick, chaos=None,
                 netchaos=None) -> None:
        super().__init__(worker_id, entries, tick, chaos, netchaos)
        self._ctx = multiprocessing.get_context()
        self.conn = None

    def _spawn_raw(self, replay: list, incarnation: int) -> None:
        parent, child = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_fork_agent_main,
            args=(
                child, self.entries, self.tick, replay, self.chaos,
                self.worker_id, incarnation,
            ),
            daemon=True,
        )
        proc.start()
        child.close()
        self.conn = parent
        self.proc = proc

    def _send_raw(self, msg: tuple) -> None:
        if self.conn is None:
            raise self._closed_failure()
        blob = pickle.dumps(msg)
        try:
            self.conn.send_bytes(blob)
        except (BrokenPipeError, OSError) as exc:
            if self.closed:
                raise self._closed_failure() from exc
            raise self._crash_failure(detail="is gone") from exc
        self.bytes_sent += len(blob)
        self.messages += 1

    def _recv_raw(self, timeout: float) -> tuple:
        if self.conn is None:
            raise self._closed_failure()
        conn, proc = self.conn, self.proc
        remaining = timeout
        while not conn.poll(min(0.05, max(remaining, 0.0))):
            remaining -= 0.05
            if proc is not None and not proc.is_alive():
                if conn.poll(0):
                    break  # drain what it flushed before dying
                raise self._crash_failure()
            if remaining <= 0:
                raise self._hang_failure(timeout)
        try:
            blob = conn.recv_bytes()
        except (EOFError, OSError) as exc:
            if self.closed:
                raise self._closed_failure() from exc
            raise self._crash_failure(
                detail="closed its pipe mid-reply"
            ) from exc
        self.bytes_received += len(blob)
        try:
            msg = pickle.loads(blob)
        except Exception as exc:
            raise self._garbled_failure(
                f"sent an unpicklable reply: {exc}"
            ) from exc
        if not (
            isinstance(msg, tuple)
            and len(msg) == 4
            and isinstance(msg[2], int)
            and isinstance(msg[3], int)
        ):
            raise self._garbled_failure(f"sent a malformed reply: {msg!r}")
        return msg

    def reap(self) -> None:
        if self.conn is not None:
            try:
                self.conn.close()
            except OSError:  # pragma: no cover - already torn down
                pass
            self.conn = None
        proc = self.proc
        if proc is not None:
            proc.terminate()
            proc.join(timeout=1.0)
            if proc.is_alive():  # pragma: no cover - SIGTERM ignored
                proc.kill()
                proc.join()
            self.proc = None

    def request_close(self) -> None:
        self.closed = True
        if self.conn is not None:
            try:
                self.conn.send_bytes(pickle.dumps(("close",)))
            except (BrokenPipeError, OSError):
                pass

    def finish_close(self, grace: float = 5.0) -> None:
        self._end_proc(grace)
        if self.conn is not None:
            try:
                self.conn.close()
            except OSError:  # pragma: no cover - already torn down
                pass
            self.conn = None


class SocketTransport(ShardTransport):
    """A host-agent process over one persistent stream socket.

    The parent owns a listener (Unix-domain under a private tempdir when
    the platform has it, loopback TCP otherwise) that outlives agent
    incarnations: each :meth:`spawn` starts a fresh agent which connects
    back, and each connection gets a fresh workload-intern table — refs
    are only valid against the agent that received their pickled bodies.
    """

    kind = "socket"

    def __init__(self, worker_id, entries, tick, chaos=None,
                 netchaos=None) -> None:
        super().__init__(worker_id, entries, tick, chaos, netchaos)
        self._ctx = multiprocessing.get_context()
        self.sock: socket.socket | None = None
        self._reader = MessageReader()
        self._queue: list[bytes] = []
        # Workload interning: id() -> ref, with strong refs held so a
        # garbage-collected workload can never hand its id to a stranger.
        self._intern_refs: dict[int, int] = {}
        self._intern_keep: list[Any] = []
        self._next_ref = 0
        self._sent_refs: set[int] = set()
        self._tmpdir: str | None = None
        try:
            self._tmpdir = tempfile.mkdtemp(prefix="repro-shard-")
            path = os.path.join(self._tmpdir, f"agent{worker_id}.sock")
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            listener.bind(path)
            self._family = socket.AF_UNIX
            self._address: Any = path
        except (AttributeError, OSError):  # pragma: no cover - no AF_UNIX
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.bind(("127.0.0.1", 0))
            self._family = socket.AF_INET
            self._address = listener.getsockname()
        listener.listen(4)
        listener.settimeout(0.05)
        self.listener: socket.socket | None = listener

    def _spawn_raw(self, replay: list, incarnation: int) -> None:
        if self.sock is not None:
            try:
                self.sock.close()
            except OSError:  # pragma: no cover - already torn down
                pass
        self.sock = None
        self._reader = MessageReader()
        self._queue = []
        self._sent_refs = set()
        proc = self._ctx.Process(
            target=_socket_agent_main,
            args=(
                self._family, self._address, self.entries, self.tick,
                replay, self.chaos, self.worker_id, incarnation,
            ),
            daemon=True,
        )
        proc.start()
        self.proc = proc
        # The agent connects before building its shard, so accept is
        # near-instant; the generous cap only guards a truly wedged start.
        deadline = 60.0
        while True:
            try:
                conn, _ = self.listener.accept()
                break
            except TimeoutError:
                deadline -= 0.05
                if not proc.is_alive():
                    raise self._crash_failure(
                        detail="died before connecting"
                    ) from None
                if deadline <= 0:  # pragma: no cover - wedged startup
                    raise self._hang_failure(60.0) from None
        conn.settimeout(0.05)
        self.sock = conn

    # -- wire encode --------------------------------------------------------
    def _encode(self, msg: tuple) -> bytes:
        tag = msg[0]
        if tag == "advance":
            _, commands, n_ticks, frac = msg
            cmds: list[list] = []
            intern: dict[int, bytes] = {}
            for cmd in commands:
                if isinstance(cmd, SpawnCmd):
                    ref = self._intern_refs.get(id(cmd.workload))
                    if ref is None:
                        ref = self._next_ref
                        self._next_ref += 1
                        self._intern_refs[id(cmd.workload)] = ref
                        self._intern_keep.append(cmd.workload)
                    if ref not in self._sent_refs:
                        intern[ref] = pickle.dumps(cmd.workload)
                        self._sent_refs.add(ref)
                    cmds.append([
                        "spawn", cmd.job_id, cmd.node, cmd.command,
                        cmd.user, cmd.wallclock_limit, ref,
                    ])
                else:
                    cmds.append(["preempt", cmd.job_id, cmd.node])
            return pack_shard(
                MSG_SHARD_ADVANCE,
                {
                    "cmds": cmds,
                    "n_ticks": n_ticks,
                    "frac": frac,
                    "intern": intern,
                },
            )
        if tag == "snapshot":
            return pack_shard(MSG_SHARD_SNAPSHOT, list(msg[1]))
        if tag == "close":
            return pack_shard(MSG_SHARD_CLOSE, None)
        raise SimulationError(f"unknown transport message {tag!r}")

    def _send_raw(self, msg: tuple) -> None:
        if self.sock is None:
            raise self._closed_failure()
        data = self._encode(msg)
        try:
            self.sock.sendall(data)
        except OSError as exc:
            if self.closed:
                raise self._closed_failure() from exc
            raise self._crash_failure(detail="is gone") from exc
        self.bytes_sent += len(data)
        self.messages += 1

    def _recv_raw(self, timeout: float) -> tuple:
        if self.sock is None:
            raise self._closed_failure()
        remaining = timeout
        while not self._queue:
            try:
                data = self.sock.recv(1 << 16)
            except TimeoutError:
                remaining -= 0.05
                if self.proc is not None and not self.proc.is_alive():
                    # One last drain: bytes the agent flushed before dying
                    # are still in the socket buffer (recv would have
                    # returned them, not timed out) — so this is a crash.
                    raise self._crash_failure()
                if remaining <= 0:
                    raise self._hang_failure(timeout)
                continue
            except OSError as exc:
                if self.closed:
                    raise self._closed_failure() from exc
                raise self._crash_failure(detail="is gone") from exc
            if not data:
                raise self._crash_failure(detail="closed its socket")
            self.bytes_received += len(data)
            try:
                self._queue.extend(self._reader.feed(data))
            except WireError as exc:
                raise self._garbled_failure(
                    f"sent an unframeable byte stream: {exc}"
                ) from exc
        try:
            msg_type, value = decode_shard(self._queue.pop(0))
            inc, epoch, payload = split_fenced(value)
        except WireError as exc:
            raise self._garbled_failure(
                f"sent an undecodable message: {exc}"
            ) from exc
        if msg_type == MSG_SHARD_OK:
            return ("ok", payload, inc, epoch)
        if msg_type == MSG_SHARD_ERR:
            return ("error", payload, inc, epoch)
        raise self._garbled_failure(
            f"sent an unexpected message type {msg_type}"
        )

    def reap(self) -> None:
        if self.sock is not None:
            try:
                self.sock.close()
            except OSError:  # pragma: no cover - already torn down
                pass
            self.sock = None
        proc = self.proc
        if proc is not None:
            proc.terminate()
            proc.join(timeout=1.0)
            if proc.is_alive():  # pragma: no cover - SIGTERM ignored
                proc.kill()
                proc.join()
            self.proc = None

    def request_close(self) -> None:
        self.closed = True
        if self.sock is not None:
            try:
                self.sock.sendall(pack_shard(MSG_SHARD_CLOSE, None))
            except OSError:
                # A peer that half-closed first answers the BYE with
                # ECONNRESET/EPIPE; swallowing it here keeps teardown
                # from masking whatever failure triggered it.
                pass

    def finish_close(self, grace: float = 5.0) -> None:
        self._end_proc(grace)
        if self.sock is not None:
            try:
                self.sock.close()
            except OSError:  # pragma: no cover - already torn down
                pass
            self.sock = None
        if self.listener is not None:
            try:
                self.listener.close()
            except OSError:  # pragma: no cover - already torn down
                pass
            self.listener = None
        if self._tmpdir is not None:
            try:
                os.unlink(self._address)
            except OSError:
                pass
            try:
                os.rmdir(self._tmpdir)
            except OSError:
                pass
            self._tmpdir = None


def make_transport(
    name: str,
    worker_id: int,
    entries: list[tuple["NodeSpec", int]],
    tick: float,
    chaos: "GridFaultPlan | None" = None,
    netchaos: "NetChaosPlan | None" = None,
) -> ShardTransport:
    """Transport factory used by the sharded engines."""
    if name == "inproc":
        return InprocTransport(worker_id, entries, tick, chaos, netchaos)
    if name == "fork":
        return ForkTransport(worker_id, entries, tick, chaos, netchaos)
    if name == "socket":
        return SocketTransport(worker_id, entries, tick, chaos, netchaos)
    raise SimulationError(
        f"unknown shard transport {name!r} "
        f"(have: {', '.join(TRANSPORT_NAMES)})"
    )
