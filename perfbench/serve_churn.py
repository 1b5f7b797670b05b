"""serve-churn: the collector daemon feeding two socket clients over a churning node.

The daemon (``serve_daemon.py``) runs in a process of its own: a
:class:`CollectorDaemon` over one :class:`Sampler` of a 4-core Nehalem node
(tick 0.025 s) with 150 resident synthetic tasks plus a seeded churn of ~10
births per refresh, each living 0.5-2 s. It refreshes at 10 Hz of virtual
time and is paced (``pace`` > 0), so its event loop idles between
refreshes and a frame's delivery is not held up by the next refresh.

This process is the load generator: it holds two :class:`ServeClient`
connections, one with a total subscription and one filtered to fifty
resident commands with one server-side derived column. Two connections
keep the clients within the host's two cores. Counter attach and detach
in ``ProcessList.refresh``, ``FanoutHub.publish`` encoding and socket
delivery do the work; there is no rendering and the advance is small.

Correctness: both clients' streams must equal a solo :class:`Sampler` run
of the same node through ``subscription_view`` + ``frame_digest``, as the
``python -m repro.serve --smoke`` check does.
"""

from __future__ import annotations

import asyncio
import gc
import json
import select
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from calibrate import Calibrator, run_stages
from metrics import Result, deliver_metrics

from repro.core.app import SimHost
from repro.core.options import Options
from repro.core.sampler import Sampler
from repro.core.screen import get_screen
from repro.serve.client import ServeClient
from repro.serve.protocol import frame_digest
from repro.serve.session import Subscription, subscription_view
from repro.sim.arch import NEHALEM
from repro.sim.machine import SimMachine
from repro.sim.workloads import synthetic

HERE = Path(__file__).resolve().parent
RESIDENT = 150
CHURN_POOL = 16
BIRTHS_PER_REFRESH = 10
LIFETIME_S = (0.5, 2.0)
TICK = 0.025
DELAY = 0.1
#: Real seconds the daemon idles between refreshes.
PACE = 0.05
#: Refreshes per second of ``--seconds``: a run's length is fixed by its
#: arguments, never by the host's speed. The count matters beyond noise:
#: killed tasks stay in ``SimMachine.processes`` and every counter open
#: scans that table, so a refresh costs more the longer the node has run.
FRAMES_PER_S = 12
MIN_ITERATIONS = 100
#: How long the load generator waits for the daemon at each step.
DAEMON_TIMEOUT_S = 90.0


class Node:
    """The watched node and its seeded churn script."""

    def __init__(self, machine: SimMachine, specs: list, pool: list, seed: int) -> None:
        self.machine = machine
        self.specs = specs
        self.pool = pool
        self.host = SimHost(machine)
        self.rng = np.random.default_rng((seed, 17))

    def advance(self) -> None:
        """Births for this refresh, then one refresh delay of virtual time."""
        machine = self.machine
        for _ in range(int(self.rng.poisson(BIRTHS_PER_REFRESH))):
            command, workload = self.pool[int(self.rng.integers(len(self.pool)))]
            proc = machine.spawn(command, workload)
            machine.kill_at(machine.now + float(self.rng.uniform(*LIFETIME_S)), proc.pid)
        self.host.sleep(DELAY)


def build_node(seed: int):
    """The node for ``seed``: a generator yielding between set-up stages."""
    machine = SimMachine(NEHALEM, sockets=1, cores_per_socket=4, tick=TICK, seed=seed)
    specs = resident_specs(seed)
    for i, spec in enumerate(specs):
        machine.spawn(spec.name, synthetic.build(spec, NEHALEM, seed=seed))
        if i % 50 == 49:
            yield
    pool = [
        (f"churn-{s.archetype}", synthetic.build(s, NEHALEM, seed=seed))
        for s in synthetic.generate_specs(CHURN_POOL, seed=seed + 1, service_fraction=1.0)
    ]
    yield
    return Node(machine, specs, pool, seed)


def resident_specs(seed: int) -> list[synthetic.SyntheticSpec]:
    return synthetic.generate_specs(RESIDENT, seed=seed)


def subscriptions(specs: list[synthetic.SyntheticSpec]) -> dict[str, Subscription]:
    """The two clients' subscriptions, by client id."""
    return {
        "total": Subscription(),
        "filtered": Subscription(
            comms=frozenset(spec.name[:15] for spec in specs[:50]),
            exprs=(("GIPS", "instructions / delta_t / 1e9"),),
        ),
    }


def make_sampler(node: Node, backend=None, tasks=None) -> Sampler:
    return Sampler(
        backend or node.host.backend,
        tasks or node.host.tasks,
        get_screen("default"),
        Options(delay=DELAY),
    )


def solo_digests(seed: int, frames: int) -> dict[str, list[str]]:
    """The reference: one sampler, no daemon, same node, same cadence."""
    node = run_stages(build_node(seed))
    sampler = make_sampler(node)
    subs = subscriptions(node.specs)
    out: dict[str, list[str]] = {name: [] for name in subs}
    sampler.sample_frame()  # baseline
    for _ in range(frames):
        node.advance()
        frame = sampler.sample_frame()
        for name, sub in subs.items():
            out[name].append(frame_digest(subscription_view(frame, sub)))
    sampler.close()
    return out


async def _consume(port: int, client_id: str, sub: Subscription) -> dict:
    """One client: every frame's arrival time (monotonic) and digest.

    Digests are taken after the stream ends, so hashing one client's
    frame never delays the other client's next arrival.
    """
    client = ServeClient("127.0.0.1", port, client_id=client_id, subscription=sub)
    await client.connect()
    arrivals, frames = [], []
    try:
        async for seq, frame in client.frames():
            arrivals.append((seq, time.monotonic()))
            frames.append(frame)
    finally:
        await client.close()
    return {"arrivals": arrivals, "digests": [frame_digest(f) for f in frames],
            "gaps": client.gaps}


async def _clients(port: int, subs: dict[str, Subscription]) -> dict[str, dict]:
    results = await asyncio.gather(*(_consume(port, name, sub) for name, sub in subs.items()))
    return dict(zip(subs, results))


def _read_json_line(proc: subprocess.Popen) -> dict:
    """The daemon's next report line, or an error after DAEMON_TIMEOUT_S."""
    ready, _, _ = select.select([proc.stdout], [], [], DAEMON_TIMEOUT_S)
    if not ready:
        raise TimeoutError(f"serve daemon silent for {DAEMON_TIMEOUT_S:g} s")
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError(f"serve daemon exited early (code {proc.wait()})")
    return json.loads(line)


def session(seed: int, frames: int, trace: bool) -> dict:
    """One daemon process and its two clients; returns both sides' data."""
    cmd = [sys.executable, str(HERE / "serve_daemon.py"), "--seed", str(seed),
           "--frames", str(frames), "--trace", str(int(trace))]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        ready = _read_json_line(proc)
        subs = subscriptions(resident_specs(seed))
        # The load generator keeps every frame for the check; with the
        # collector on, its pauses over that growing heap would land in
        # the delivery latencies (and contend with the daemon's refresh).
        gc.disable()
        try:
            clients = asyncio.run(
                asyncio.wait_for(_clients(ready["port"], subs), DAEMON_TIMEOUT_S)
            )
        finally:
            gc.enable()
        done = _read_json_line(proc)
        code = proc.wait(timeout=DAEMON_TIMEOUT_S)
        if code != 0:
            raise RuntimeError(f"serve daemon exited with code {code}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    return {"done": done, "clients": clients}


def run(seed: int, seconds: float, cal: Calibrator, tracer) -> Result:
    s = session(seed, max(MIN_ITERATIONS, round(seconds * FRAMES_PER_S)), tracer is not None)
    done = s["done"]
    published = done["published"]
    problems = []
    expected = solo_digests(seed, published)
    missing = 0
    arrivals = []
    for name, client in s["clients"].items():
        if client["digests"] != expected[name]:
            problems.append(f"client {name}: stream differs from the solo run")
        missing += published - len(client["arrivals"])
        arrivals += client["arrivals"]
    deliver = [
        (arrived - done["published_at"][seq]) * done["factors"][seq]
        for seq, arrived in sorted(arrivals, key=lambda a: a[1])
    ]
    if tracer is None:
        values = {
            "setup_s": done["setup_s"],
            "peak_rss_mb": done["rss_mb"],
            "sim_s_per_s": done["sim_s_per_s"],
            "loop_ms.p50": done["loop_ms.p50"],
            "loop_ms.p90": done["loop_ms.p90"],
            "overhead_pct": done["overhead_pct"],
            **deliver_metrics(deliver),
        }
    else:
        plain = session(seed, published, trace=False)
        values = dict(done["layers"])
        values["bench.trace_overhead_pct"] = 100.0 * (
            done["loop_ms.p50"] / plain["done"]["loop_ms.p50"] - 1.0
        )
        # The workload is chosen for counter attach/detach under churn.
        for count in ("perf.simbackend.opens", "perf.simbackend.closes"):
            if not values[count] > 0:
                problems.append(f"{count} is 0: the churn attached or detached nothing")
    return Result(
        correct=not problems and missing == 0,
        attempted=published * len(s["clients"]),
        failed=missing,
        values=values,
        record={
            "frames": published,
            "probe": done["probe"],
            "daemon": done["record"],
            "client_gaps": {n: c["gaps"] for n, c in s["clients"].items()},
        },
        problems=problems,
    )
