"""The serve-churn daemon process.

    python3 perfbench/serve_daemon.py --seed N --frames F --trace 0|1

Builds the serve-churn node and a paced :class:`CollectorDaemon` over it,
prints one JSON line with the listening port, waits for the two clients,
publishes ``F`` frames, lets every client drain and receive its BYE, then
prints one
JSON line with what it measured. Each refresh is timed from the daemon's
``advance`` hook to the return of ``FanoutHub.publish``; the calibration
probe runs in the hook, before the refresh's work, so it never delays a
frame's delivery.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import sys
import time
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import serve_churn as wl  # noqa: E402
from calibrate import Calibrator, percentile, series_percentile  # noqa: E402
from metrics import layer_metrics, loop_metrics, peak_rss_mb  # noqa: E402
from tracing import Proxy, Tracer, trace_method  # noqa: E402

from repro.serve.daemon import CollectorDaemon  # noqa: E402

SETUP_REPEATS = 9


class Refreshes:
    """The daemon's refresh loop, timed from its advance hook and publish."""

    def __init__(self, node: wl.Node, cal: Calibrator, tracer: Tracer | None) -> None:
        self.node = node
        self.cal = cal
        self.tracer = tracer
        self.factors: list[float] = []
        self.raw: list[float] = []
        self.monitor: list[float] = []
        self.published_at: list[float] = []
        self._start = self._advanced = 0.0

    def advance(self) -> None:
        """The daemon's advance hook: probe, then churn + advance."""
        k = len(self.raw)
        if k == 0:
            self.cal.mark()
        else:
            self.factors.append(self.cal.factor())
        tracer = self.tracer
        if tracer is not None:
            tracer.iteration = k
            tracer.begin("loop")
            tracer.begin("sim.machine.advance")
        self._start = perf_counter()
        self.node.advance()
        self._advanced = perf_counter()
        if tracer is not None:
            tracer.end()

    def wrap_publish(self, publish):
        def timed(frame):
            seq = publish(frame)
            now = perf_counter()
            self.published_at.append(time.monotonic())
            if self.tracer is not None:
                self.tracer.end()  # the refresh's "loop" span
            self.raw.append(now - self._start)
            self.monitor.append(now - self._advanced)
            return seq

        return timed

    def finish(self) -> None:
        """Close the last refresh's probe bracket."""
        self.factors.append(self.cal.factor())
        if self.tracer is not None:
            self.tracer.iteration = -1


def build(seed: int, frames: int, cal: Calibrator, tracer: Tracer | None,
          loop: asyncio.AbstractEventLoop):
    """Node, sampler and a listening daemon: ready to publish.

    A generator yielding between set-up stages; returns
    ``(daemon, refreshes, port)``.
    """
    node = yield from wl.build_node(seed)
    backend, tasks = node.host.backend, node.host.tasks
    if tracer is not None:
        backend = Proxy(backend, tracer, "perf.simbackend",
                        ("open", "close", "read", "read_many"),
                        counts={"read_many": lambda args: len(args[0])})
        tasks = Proxy(tasks, tracer, "procfs.simproc",
                      ("process", "list_processes", "uptime"))
    sampler = wl.make_sampler(node, backend, tasks)
    refreshes = Refreshes(node, cal, tracer)
    daemon = CollectorDaemon(sampler, advance=refreshes.advance, iterations=frames,
                             pace=wl.PACE, min_clients=2)
    publish = daemon.hub.publish
    if tracer is not None:
        trace_method(tracer, sampler, "sample_frame", "core.sampler.sample_frame")
        trace_method(tracer, sampler.proclist, "refresh", "core.proclist.refresh")
        publish = tracer.wrap("serve.session.publish", publish)
    daemon.hub.publish = refreshes.wrap_publish(publish)
    yield
    port = loop.run_until_complete(daemon.start())
    return daemon, refreshes, port


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/serve_daemon.py")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--frames", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cal = Calibrator()
    cal.warm()
    tracer = Tracer() if args.trace else None
    loop = asyncio.new_event_loop()
    try:
        setups = []
        daemon = None
        for _ in range(SETUP_REPEATS):
            if daemon is not None:
                loop.run_until_complete(daemon.close())
                daemon = refreshes = None
            gc.collect()
            setup_s, (daemon, refreshes, port) = cal.normalise_stages(
                build(args.seed, args.frames, cal, tracer, loop)
            )
            setups.append(setup_s)
        print(json.dumps({"port": port}), flush=True)
        stats = loop.run_until_complete(daemon.run())
        refreshes.finish()
        rss = peak_rss_mb()
        loop.run_until_complete(daemon.close())
    finally:
        loop.close()

    r = refreshes
    loop_s = [raw * f for raw, f in zip(r.raw, r.factors)]
    done = {
        "published": len(r.raw),
        "published_at": r.published_at,
        "factors": r.factors,
        "setup_s": percentile(setups, 50),
        "rss_mb": rss,
        **loop_metrics(loop_s, wl.DELAY),
        "overhead_pct": series_percentile(
            [m * f / wl.DELAY * 100.0 for m, f in zip(r.monitor, r.factors)], 50
        ),
        "probe": cal.summary(),
        "record": {
            "hub": {k: v for k, v in stats.items() if k != "sessions"},
            "loop_raw_ms.p50": percentile(r.raw, 50) * 1e3,
        },
    }
    if tracer is not None:
        n = len(loop_s)
        layers = layer_metrics(tracer, r.factors, loop_s)
        sampler = daemon.sampler
        layers.update({
            "core.sampler.read_retries": sampler.read_retries / n,
            "core.sampler.read_skips": sampler.read_skips / n,
            "serve.session.encode_hits": stats["encode_hits"] / n,
            "serve.session.encode_misses": stats["encode_misses"] / n,
            "serve.session.dropped": stats["dropped_total"],
            "serve.session.lag_max": stats["lag_max"],
            "bench.loop_raw_ms.p50": percentile(r.raw, 50) * 1e3,
        })
        done["layers"] = layers
        tracer.write_jsonl(HERE / "out" / f"trace-serve-churn-{args.seed}.jsonl",
                           {"workload": "serve-churn", "process": "daemon",
                            "seed": args.seed, "metrics": layers})
    print(json.dumps(done), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
