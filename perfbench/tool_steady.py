"""tool-steady: the ``tiptop --sim -b`` refresh loop over a steady 1000-task node.

One process runs the real :meth:`TipTop.snapshots` loop and renders every
snapshot with :func:`formatter.render_batch`, exactly what batch mode does.
The node is a 4-core Nehalem :class:`SimMachine` (tick 0.1 s) holding 1000
long-lived synthetic tasks; with the default options tiptop tracks at most
512 of them. Nothing is born or dies during the run, so the refresh costs
the scalar advance (``SimHost.sleep``) plus counter and ``/proc`` reads and
evaluation; ``ProcessList.refresh`` has almost nothing to do.

Correctness: the digest of the rendered blocks must equal the digest of
:meth:`TipTop.run_batch` (the shipped batch loop, no probes, no wrappers)
over the same seed and the same number of refreshes.
"""

from __future__ import annotations

import gc
import hashlib
from time import perf_counter

from calibrate import Calibrator, percentile, run_stages, series_percentile
from metrics import Result, deliver_metrics, layer_metrics, loop_metrics, peak_rss_mb
from tracing import Proxy, Tracer, trace_method

from repro.core import formatter
from repro.core.app import SimHost, TipTop
from repro.core.options import Options
from repro.sim.arch import NEHALEM
from repro.sim.machine import SimMachine
from repro.sim.workloads import synthetic

TASKS = 1000
TICK = 0.1
DELAY = 1.0
#: Refreshes per second of ``--seconds``: a run's length is fixed by its
#: arguments, never by the host's speed (~1 s of loop per 10 refreshes,
#: probes included, on the reference host).
REFRESHES_PER_S = 10
MIN_ITERATIONS = 100
#: Set-up is timed as the median of this many constructions.
SETUP_REPEATS = 7


def build_host(seed: int):
    """The node under watch, its tasks drawn from ``seed``.

    A generator that yields every 100 tasks, so set-up can be timed in
    stages (see :meth:`Calibrator.normalise_stages`); returns the host.
    """
    machine = SimMachine(NEHALEM, sockets=1, cores_per_socket=4, tick=TICK, seed=seed)
    for i, spec in enumerate(synthetic.generate_specs(TASKS, seed=seed)):
        workload = synthetic.build(spec, NEHALEM, seed=seed)
        machine.spawn(spec.name, workload, nthreads=1, duty_cycle=1.0)
        if i % 100 == 99:
            yield
    return SimHost(machine)


class TimedHost:
    """The SimHost as tiptop sees it, with the advance timed from outside."""

    def __init__(self, host: SimHost, tracer: Tracer | None) -> None:
        self.host = host
        self.backend = host.backend
        self.tasks = host.tasks
        self.advance_s = 0.0
        self._tracer = tracer
        if tracer is not None:
            self.backend = Proxy(
                host.backend,
                tracer,
                "perf.simbackend",
                ("open", "close", "read", "read_many"),
                counts={"read_many": lambda args: len(args[0])},
            )
            self.tasks = Proxy(
                host.tasks,
                tracer,
                "procfs.simproc",
                ("process", "list_processes", "uptime"),
            )

    def sleep(self, seconds: float) -> None:
        if self._tracer is not None:
            self._tracer.begin("sim.machine.advance")
        t0 = perf_counter()
        try:
            self.host.sleep(seconds)
        finally:
            self.advance_s = perf_counter() - t0
            if self._tracer is not None:
                self._tracer.end()


def build(seed: int, tracer: Tracer | None = None):
    """Node, tool and baseline snapshot: everything before the first refresh.

    Staged like :func:`build_host`; returns ``(host, app, snapshots)``.
    """
    host = TimedHost((yield from build_host(seed)), tracer)
    app = TipTop(host, Options(delay=DELAY))
    if tracer is not None:
        trace_method(tracer, app.sampler, "sample", "core.sampler.sample")
        trace_method(tracer, app.sampler, "sample_frame", "core.sampler.sample_frame")
        trace_method(tracer, app.sampler.proclist, "refresh", "core.proclist.refresh")
    snapshots = app.snapshots()
    yield
    next(snapshots)  # baseline: attach counters
    return host, app, snapshots


def measure(seed: int, iterations: int, cal: Calibrator, tracer: Tracer | None,
            setup_repeats: int = SETUP_REPEATS) -> dict:
    """Set-up, then ``iterations`` timed refreshes."""
    render = formatter.render_batch
    if tracer is not None:
        render = tracer.wrap("core.formatter.render_batch", render)
    setups = []
    for _ in range(setup_repeats):
        built = None  # one node alive at a time
        gc.collect()
        setup_s, built = cal.normalise_stages(build(seed, tracer))
        setups.append(setup_s)
    host, app, snapshots = built
    built = None
    digest = hashlib.sha256()
    loop, advance, deliver, factors, raw = [], [], [], [], []
    rows = 0
    cal.mark()
    for _ in range(iterations):
        if tracer is not None:
            tracer.iteration = len(loop)
            tracer.begin("loop")
        t0 = perf_counter()
        snapshot = next(snapshots)
        t1 = perf_counter()
        block = render(app.screen, snapshot)
        digest.update(block.encode() + b"\n")
        t2 = perf_counter()
        if tracer is not None:
            tracer.end()
        f = cal.factor()
        factors.append(f)
        raw.append(t2 - t0)
        loop.append((t2 - t0) * f)
        advance.append(host.advance_s * f)
        deliver.append((t2 - t1) * f)
        rows += len(snapshot.rows)
    if tracer is not None:
        tracer.iteration = -1
    out = {
        "setups": setups,
        "loop": loop,
        "advance": advance,
        "deliver": deliver,
        "factors": factors,
        "raw": raw,
        "digest": digest.hexdigest(),
        "rows": rows,
        "read_skips": app.sampler.read_skips,
        "read_retries": app.sampler.read_retries,
        "rss": peak_rss_mb(),
    }
    app.close()
    return out


def reference_digest(seed: int, iterations: int) -> str:
    """What the shipped batch loop prints for this seed, hashed."""
    digest = hashlib.sha256()
    with TipTop(run_stages(build_host(seed)), Options(delay=DELAY)) as app:
        app.run_batch(iterations, write=lambda block: digest.update(block.encode() + b"\n"))
    return digest.hexdigest()


def run(seed: int, seconds: float, cal: Calibrator, tracer: Tracer | None) -> Result:
    n = max(MIN_ITERATIONS, round(seconds * REFRESHES_PER_S))
    m = measure(seed, n, cal, tracer)
    problems = []
    if tracer is not None:
        # The untraced twin gives the tracing overhead and the digest check.
        gc.collect()
        plain = measure(seed, n, cal, None, setup_repeats=1)
        if plain["digest"] != m["digest"]:
            problems.append("traced blocks differ from the untraced run's")
        values = layer_metrics(tracer, m["factors"], m["loop"])
        values["core.sampler.read_retries"] = m["read_retries"] / n
        values["core.sampler.read_skips"] = m["read_skips"] / n
        values["bench.trace_overhead_pct"] = 100.0 * (
            percentile(m["loop"], 50) / percentile(plain["loop"], 50) - 1.0
        )
        values["bench.loop_raw_ms.p50"] = percentile(m["raw"], 50) * 1e3
        if abs(values["bench.layer_coverage"] - 1.0) > 0.1:
            problems.append(
                f"layer self times cover {values['bench.layer_coverage']:.3f} of the loop time"
            )
    else:
        if reference_digest(seed, n) != m["digest"]:
            problems.append("blocks differ from TipTop.run_batch's")
        values = {
            "setup_s": percentile(m["setups"], 50),
            "peak_rss_mb": m["rss"],
            **loop_metrics(m["loop"], DELAY),
            "overhead_pct": series_percentile(
                [(lp - adv) / DELAY * 100.0 for lp, adv in zip(m["loop"], m["advance"])],
                50,
            ),
            **deliver_metrics(m["deliver"]),
        }
    attempted = m["rows"] + m["read_skips"]
    return Result(
        correct=not problems,
        attempted=attempted,
        failed=m["read_skips"],
        values=values,
        record={
            "iterations": n,
            "tasks_per_refresh": m["rows"] / n,
            "loop_raw_ms.p50": percentile(m["raw"], 50) * 1e3,
        },
        problems=problems,
    )
