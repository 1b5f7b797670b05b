"""grid-recover: a 48-node supervised grid that loses two workers mid-run.

One process drives a :class:`Grid` of 48 small nodes (the datacenter mix of
``benchmarks/test_grid_scaling.py``: three long-lived services and one
finite batch job per node, plus a queued backlog) through the supervised
engine with two in-process workers (``transport="inproc"``, no backoff
sleeps). An episode is 180 steps of ``Grid.run_for(10)``: 1800 virtual
seconds, ~188 epochs. Worker 0 crashes at epoch 60 and worker 1 answers
epoch 120 with a garbled reply; the faults name their epochs explicitly,
so the schedule does not depend on the seeded fault hash. Every restart
replays the worker's journal from t=0, so recovery costs ~180 replayed
epochs per episode. No tool layer runs: the columnar kernel, grid
dispatch and journal replay do all the work.

A run makes one episode per 7 s of ``--seconds``. ``peak_rss_mb`` is read
after the episodes; only then does a fault-free copy of the fleet run the
same episode on the serial engine, so the copy is not counted. Its
``conformance_digest()`` must equal every episode's.
"""

from __future__ import annotations

import gc
import hashlib
import math
import statistics
from time import perf_counter

from calibrate import Calibrator, percentile, run_stages
from metrics import Result, deliver_metrics, layer_metrics, loop_metrics, peak_rss_mb
from tracing import Tracer, trace_method

from repro.sim.arch import NEHALEM
from repro.sim.grid import Grid, NodeSpec
from repro.sim.supervisor import GridFaultPlan, GridFaultSpec, Supervision
from repro.sim.workloads import datacenter

NODES = 48
STEP = 10.0
STEPS = 180
SETUP_REPEATS = 11
#: Seconds of ``--seconds`` per episode: a run's length is fixed by its
#: arguments, never by the host's speed.
SECONDS_PER_EPISODE = 7
FAULTS = GridFaultPlan(
    seed=0,
    specs=(
        GridFaultSpec("crash", at_epochs=frozenset({60}), worker=0),
        GridFaultSpec("garble", at_epochs=frozenset({120}), worker=1),
    ),
)


def fleet() -> list[NodeSpec]:
    """48 small nodes (4 PUs each), alternating Westmere and Nehalem."""
    specs = []
    for i in range(NODES):
        if i % 2 == 0:
            specs.append(NodeSpec(name=f"bench{i:02d}", sockets=1, cores_per_socket=2))
        else:
            specs.append(
                NodeSpec(name=f"bench{i:02d}", arch=NEHALEM, sockets=1,
                         cores_per_socket=2, memory_bytes=16 * 1024**3)
            )
    return specs


def populate(grid: Grid):
    """Per node: three services and one finite noise-free job, plus a
    backlog of half a job per node that dispatches as slots free.

    Yields every 48 submissions, so set-up can be timed in stages."""
    for i in range(4 * NODES):
        if i % 4 == 3:
            workload = datacenter.compute_job(
                f"job{i:03d}", 1.0, duration_hint=30.0 + 15.0 * (i % 5), noise=0.0
            )
        else:
            workload = datacenter.compute_job(f"job{i:03d}", 0.9 + 0.1 * (i % 4))
        grid.submit(
            f"job{i:03d}",
            workload,
            user=f"user{i % 3}",
            queue=("short-2g-asap", "day-2g-overnight")[i % 2],
        )
        if i % NODES == NODES - 1:
            yield
    for i in range(NODES // 2):
        grid.submit(
            f"backlog{i:02d}",
            datacenter.compute_job(f"backlog{i:02d}", 1.1, duration_hint=40.0, noise=0.0),
            queue="short-2g-asap",
        )


def build(seed: int, faults: bool = True):
    """The populated grid: supervised with faults, or the serial oracle.

    A generator yielding between set-up stages; returns the grid.
    """
    if faults:
        grid = Grid(fleet(), tick=1.0, seed=seed, workers=2, engine="supervised",
                    transport="inproc", grid_chaos=FAULTS,
                    supervision=Supervision(backoff_base=0.0))
    else:
        grid = Grid(fleet(), tick=1.0, seed=seed)
    yield
    for _ in populate(grid):
        yield
    return grid


def digest_of(grid: Grid) -> str:
    return hashlib.sha256(repr(grid.conformance_digest()).encode()).hexdigest()


def _restarts(grid: Grid) -> int:
    """Worker restarts so far."""
    return grid.engine.stats["restarts"]


def episode(seed: int, cal: Calibrator, tracer: Tracer | None) -> dict:
    """One 1800 s episode of the faulted grid, each step timed and traced."""
    grid = run_stages(build(seed))
    epochs: list[tuple[int, float]] = []  # (step, raw seconds) per engine.advance
    recovery: list[tuple[int, float]] = []
    engine_advance = grid.engine.advance
    step_no = 0

    def advance(*args, **kwargs):
        restarts = _restarts(grid)
        t0 = perf_counter()
        try:
            return engine_advance(*args, **kwargs)
        finally:
            spent = perf_counter() - t0
            epochs.append((step_no, spent))
            if _restarts(grid) > restarts:
                recovery.append((step_no, spent))

    grid.engine.advance = advance
    if tracer is not None:
        trace_method(tracer, grid.engine, "advance", "sim.supervisor.advance")
        trace_method(tracer, grid, "run_for", "sim.grid.run_for")
    steps, raw, factors = [], [], []
    failed = 0
    error = None
    cal.mark()
    try:
        for step_no in range(STEPS):
            if tracer is not None:
                tracer.iteration += 1
                tracer.begin("loop")
            t0 = perf_counter()
            try:
                grid.run_for(STEP)
            except Exception as exc:  # a step that cannot complete ends the episode
                failed += 1
                error = f"step {step_no}: {exc!r}"
                break
            finally:
                t1 = perf_counter()
                if tracer is not None:
                    tracer.end()
            f = cal.factor()
            factors.append(f)
            raw.append(t1 - t0)
            steps.append((t1 - t0) * f)
        digest = digest_of(grid) if failed == 0 else None
        stats = dict(grid.stats)
    finally:
        grid.close()
    advanced = [0.0] * len(raw)
    for i, spent in epochs:
        if i < len(raw):
            advanced[i] += spent
    return {
        "steps": steps,
        "raw": raw,
        "factors": factors,
        "grid_share": [(r - a) / r for r, a in zip(raw, advanced)],
        "deliver": [s * factors[i] for i, s in epochs if i < len(factors)],
        "recovery_s": sum(s * factors[i] for i, s in recovery if i < len(factors)),
        "failed": failed,
        "error": error,
        "digest": digest,
        "stats": stats,
    }


def fault_free(seed: int) -> tuple[str, dict]:
    """The same episode on the serial engine without faults, untimed:
    its digest and its kernel stats."""
    grid = run_stages(build(seed, faults=False))
    try:
        for _ in range(STEPS):
            grid.run_for(STEP)
        return digest_of(grid), grid.kernel_stats()
    finally:
        grid.close()


def run(seed: int, seconds: float, cal: Calibrator, tracer: Tracer | None) -> Result:
    setups = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        setup_s, grid = cal.normalise_stages(build(seed))
        grid.close()
        grid = None  # one grid alive at a time
        setups.append(setup_s)

    episodes = []
    for _ in range(max(1, math.ceil(seconds / SECONDS_PER_EPISODE))):
        gc.collect()
        episodes.append(episode(seed, cal, tracer))
    if tracer is not None:
        tracer.iteration = -1
    rss = peak_rss_mb()  # before the fault-free copy exists
    gc.collect()
    reference, kernel = fault_free(seed)

    steps = [s for e in episodes for s in e["steps"]]
    factors = [f for e in episodes for f in e["factors"]]
    stats = [e["stats"] for e in episodes]
    attempted = sum(len(e["steps"]) + e["failed"] for e in episodes)
    failed = sum(e["failed"] for e in episodes)
    problems = [
        f"episode {i + 1}: " + (e["error"] or "digest differs from the fault-free run")
        for i, e in enumerate(episodes) if e["error"] or e["digest"] != reference
    ]
    # The workload is chosen for its recovery cost: an episode that
    # replayed nothing did not measure it.
    problems += [
        f"episode {i + 1}: no epoch was replayed, so recovery did not run"
        for i, s in enumerate(stats) if not s["replayed_epochs"] > 0
    ]
    if tracer is None:
        values = {
            "setup_s": percentile(setups, 50),
            "peak_rss_mb": rss,
            **loop_metrics(steps, NODES * STEP),
            # The grid's own share of each step, outside the engine: a ratio
            # within one step, so host speed cancels without a probe.
            "overhead_pct": 100.0 * statistics.fmean(
                g for e in episodes for g in e["grid_share"]
            ),
            **deliver_metrics([d for e in episodes for d in e["deliver"]]),
        }
    else:
        gc.collect()
        plain = episode(seed, cal, None)  # untraced twin, for the tracing overhead
        values = layer_metrics(tracer, factors, steps)
        n = len(steps)
        last = stats[-1]
        fast = sum(k["fast_slices"] for k in kernel.values())
        slow = sum(k["fallback_slices"] for k in kernel.values())
        values.update({
            "sim.supervisor.recovery_ms": 1e3 * sum(e["recovery_s"] for e in episodes) / n,
            "sim.supervisor.restarts": sum(s["restarts"] for s in stats) / n,
            "sim.supervisor.replayed_epochs": sum(s["replayed_epochs"] for s in stats) / n,
            "sim.supervisor.adopted_shards": sum(s["adopted_shards"] for s in stats) / n,
            "sim.supervisor.useful_ratio": last["epochs"] / (last["epochs"] + last["replayed_epochs"]),
            "sim.grid.epochs": sum(s["epochs"] for s in stats) / n,
            "sim.grid.ticks": sum(s["ticks"] for s in stats) / n,
            "sim.columns.fast_ratio": fast / (fast + slow) if fast + slow else 0.0,
            "bench.trace_overhead_pct": 100.0 * (
                percentile(steps, 50) / percentile(plain["steps"], 50) - 1.0
            ),
            "bench.loop_raw_ms.p50": percentile([r for e in episodes for r in e["raw"]], 50) * 1e3,
        })
    return Result(
        correct=not problems and failed == 0,
        attempted=attempted,
        failed=failed,
        values=values,
        record={
            "episodes": len(episodes),
            "steps": len(steps),
            "supervisor": stats[-1],
        },
        problems=problems,
    )
