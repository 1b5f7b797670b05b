"""Transport-axis equivalence and the per-fabric contracts.

``tests/test_grid_parallel.py`` pins the engine axis (legacy / serial /
sharded / supervised bitwise-identical under churn); this file pins the
*transport* axis underneath the sharded engines: inproc, fork and socket
fabrics must be pure performance knobs too. Plus the per-fabric
contracts the engines rely on — snapshot batching (one message per
worker, not per node), typed ``kind="closed"`` on a send racing
teardown, byte accounting (zero for inproc, exact for fork/socket), and
socket workload interning (the pickled workload crosses the wire once
per connection).
"""

import random

import pytest

from repro.errors import SimulationError, WorkerFailure
from repro.sim.grid import Grid, NodeSpec, QueueSpec
from repro.sim.parallel import SpawnCmd, TRANSPORT_NAMES
from repro.sim.supervisor import SupervisedShardedEngine
from repro.sim.transport import make_transport
from repro.sim.workloads import datacenter

GiB = 1024**3


def _job(seconds=60.0, ipc=1.2, name="job"):
    return datacenter.compute_job(name, ipc, duration_hint=seconds)


def _endless(name="svc"):
    return datacenter.compute_job(name, 1.2)


def _fleet():
    return [
        NodeSpec(name="a0", sockets=1, cores_per_socket=1,
                 memory_bytes=4 * GiB),
        NodeSpec(name="a1", sockets=1, cores_per_socket=2,
                 memory_bytes=4 * GiB),
        NodeSpec(name="a2", sockets=1, cores_per_socket=1,
                 memory_bytes=2 * GiB),
    ]


def _queues():
    return [
        QueueSpec("quick", max_wallclock=6.0, memory_limit=2 * GiB,
                  priority=2),
        QueueSpec("slow", max_wallclock=float("inf"), memory_limit=4 * GiB,
                  priority=1),
    ]


def _churn(grid: Grid, seed: int) -> None:
    rng = random.Random(seed)
    for segment in range(2):
        for i in range(rng.randint(2, 4)):
            name = f"s{segment}j{i}"
            if rng.random() < 0.3:
                grid.submit(name, _endless(name), queue="quick",
                            memory_bytes=GiB)
            else:
                grid.submit(
                    name,
                    _job(seconds=rng.choice([2.0, 5.0, 9.0]),
                         ipc=rng.choice([0.9, 1.2]), name=name),
                    queue=rng.choice(["quick", "slow"]),
                    memory_bytes=rng.choice([1, 2]) * GiB,
                )
        grid.run_for(rng.choice([3.0, 4.5]))


def _digest(seed: int, engine: str, workers: int, transport=None) -> str:
    with Grid(_fleet(), _queues(), tick=1.0, seed=seed, workers=workers,
              engine=engine, transport=transport) as grid:
        _churn(grid, seed)
        return grid.conformance_digest()


def _entries():
    return [
        (NodeSpec(name="n0", sockets=1, cores_per_socket=1,
                  memory_bytes=4 * GiB), 11),
        (NodeSpec(name="n1", sockets=1, cores_per_socket=1,
                  memory_bytes=4 * GiB), 12),
    ]


def _spawn(job_id, node, workload):
    return SpawnCmd(job_id=job_id, node=node, command=workload.name,
                    user="tester", workload=workload, wallclock_limit=None)


@pytest.fixture
def transport(request):
    t = make_transport(request.param, 0, _entries(), 0.5)
    t.spawn([], 0)
    assert t.recv(30.0) == ("ok", "ready")
    yield t
    t.close(grace=2.0)


def _params():
    return pytest.mark.parametrize("transport", TRANSPORT_NAMES,
                                   indirect=True)


class TestChurnEquivalence:
    """The 24-seed sweep: every transport bitwise-matches serial."""

    @pytest.mark.parametrize("seed", range(24))
    def test_transports_bitwise_identical_under_churn(self, seed):
        reference = _digest(seed, "serial", 1)
        for name in TRANSPORT_NAMES:
            assert _digest(seed, "sharded", 2, transport=name) == reference, (
                f"transport {name!r} diverged from serial at seed {seed}"
            )


class TestSnapshotBatching:
    @pytest.mark.parametrize("name", TRANSPORT_NAMES)
    def test_snapshot_many_is_one_message_per_worker(self, name):
        engine = SupervisedShardedEngine(_fleet(), tick=1.0, seed=3,
                                         workers=2, transport=name)
        try:
            before = engine.messages
            snaps = engine.snapshot_many([s.name for s in _fleet()])
            # 3 nodes across 2 workers: 2 sends, never 3.
            assert engine.messages - before == 2
            assert set(snaps) == {"a0", "a1", "a2"}
        finally:
            engine.close()

    @pytest.mark.parametrize("name", TRANSPORT_NAMES)
    def test_single_snapshot_still_works(self, name):
        engine = SupervisedShardedEngine(_fleet(), tick=1.0, seed=3,
                                         workers=2, transport=name)
        try:
            snap = engine.snapshot("a1")
            assert {"counters", "procs", "now"} <= set(snap)
            with pytest.raises(SimulationError, match="no node"):
                engine.snapshot("nope")
        finally:
            engine.close()


@_params()
class TestClosedRace:
    def test_send_after_close_is_typed_closed(self, transport):
        transport.close(grace=2.0)
        with pytest.raises(WorkerFailure) as info:
            transport.send(("snapshot", ["n0"]))
        assert info.value.kind == "closed"

    def test_recv_after_close_is_typed_closed(self, transport):
        transport.close(grace=2.0)
        with pytest.raises(WorkerFailure) as info:
            transport.recv(1.0)
        assert info.value.kind == "closed"

    def test_send_between_request_and_finish_is_typed_closed(self, transport):
        # The teardown race the engines guard against: close has been
        # *requested* (peer may already be gone) but resources are not
        # yet released. A straggling send must be typed, not a raw
        # BrokenPipeError.
        transport.request_close()
        with pytest.raises(WorkerFailure) as info:
            transport.send(("advance", [], 1, 0.0))
        assert info.value.kind == "closed"
        transport.finish_close(grace=2.0)


class TestBytesAccounting:
    def _advance_epochs(self, engine, n=3):
        for _ in range(n):
            engine.advance([], 2, 0.0)

    def test_inproc_moves_zero_bytes(self):
        engine = SupervisedShardedEngine(_fleet(), tick=1.0, seed=5,
                                         workers=2, transport="inproc")
        try:
            self._advance_epochs(engine)
            engine.snapshot_many(["a0", "a1", "a2"])
            assert engine.bytes_sent == 0
            assert engine.bytes_received == 0
            assert engine.messages > 0
        finally:
            engine.close()

    @pytest.mark.parametrize("name", ["fork", "socket"])
    def test_process_fabrics_account_every_message(self, name):
        engine = SupervisedShardedEngine(_fleet(), tick=1.0, seed=5,
                                         workers=2, transport=name)
        try:
            self._advance_epochs(engine)
            sent_after_advance = engine.bytes_sent
            assert sent_after_advance > 0
            assert engine.bytes_received > 0
            engine.snapshot_many(["a0", "a1", "a2"])
            assert engine.bytes_sent > sent_after_advance
        finally:
            engine.close()


class TestSocketInterning:
    """The pickled workload body crosses the socket once per connection;
    later spawns of the same object ship a fixed-size ref."""

    def test_second_spawn_of_same_workload_is_cheaper(self):
        t = make_transport("socket", 0, _entries(), 0.5)
        t.spawn([], 0)
        assert t.recv(30.0) == ("ok", "ready")
        try:
            workload = _endless("svc")
            t.send(("advance", [_spawn(1, "n0", workload)], 2, 0.0))
            first = t.bytes_sent
            assert t.recv(30.0)[0] == "ok"
            t.send(("advance", [_spawn(2, "n1", workload)], 2, 0.0))
            second = t.bytes_sent - first
            assert t.recv(30.0)[0] == "ok"
            assert second < first
            # The ref-only spawn is small: no pickled workload body.
            import pickle

            assert second < len(pickle.dumps(workload))
        finally:
            t.close(grace=2.0)

    def test_reconnect_resends_the_workload_body(self):
        # Refs are per-connection: a respawned agent has an empty intern
        # table, so the first spawn after resurrection ships the body
        # again (and the shard still runs it — digest tests elsewhere).
        t = make_transport("socket", 0, _entries(), 0.5)
        t.spawn([], 0)
        assert t.recv(30.0) == ("ok", "ready")
        try:
            workload = _endless("svc")
            t.send(("advance", [_spawn(1, "n0", workload)], 2, 0.0))
            first = t.bytes_sent
            assert t.recv(30.0)[0] == "ok"
            t.reap()
            journal = [([_spawn(1, "n0", workload)], 2, 0.0)]
            t.spawn(journal, 1)
            assert t.recv(30.0) == ("ok", "ready")
            before = t.bytes_sent
            t.send(("advance", [_spawn(2, "n1", workload)], 2, 0.0))
            assert t.recv(30.0)[0] == "ok"
            resent = t.bytes_sent - before
            # Same full-body cost as the very first spawn (± framing).
            assert resent >= first // 2
        finally:
            t.close(grace=2.0)


class TestFactory:
    def test_unknown_transport_is_rejected(self):
        with pytest.raises(SimulationError, match="unknown shard transport"):
            make_transport("carrier-pigeon", 0, _entries(), 0.5)

    def test_engine_rejects_unknown_transport(self):
        with pytest.raises(SimulationError, match="unknown shard transport"):
            SupervisedShardedEngine(_fleet(), tick=1.0, seed=0, workers=2,
                                    transport="bogus")

    def test_grid_rejects_unknown_transport(self):
        with pytest.raises(SimulationError, match="unknown shard transport"):
            Grid(_fleet(), _queues(), tick=1.0, seed=0, workers=2,
                 transport="bogus")
