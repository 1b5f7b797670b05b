"""The metric catalogue and the result every workload returns.

Every workload reports every metric, so runs of different workloads line
up column for column. An end-to-end metric means the same thing to a user
on every workload (see README.md for each workload's reading); a per-layer
metric of a layer a workload never enters reads 0.
"""

from __future__ import annotations

import resource
from dataclasses import dataclass, field

from calibrate import series_percentile
from tracing import Tracer

#: (name, unit) of the end-to-end metrics, printed by untraced runs.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_s_per_s", "node-s/s"),
    ("loop_ms.p50", "ms"),
    ("loop_ms.p90", "ms"),
    ("overhead_pct", "%"),
    ("deliver_ms.p50", "ms"),
    ("deliver_ms.p95", "ms"),
)

#: Span names whose self time makes up each per-layer time.
LAYER_SPANS = {
    "sim.machine.advance_ms": ("sim.machine.advance",),
    "perf.simbackend.read_ms": ("perf.simbackend.read", "perf.simbackend.read_many"),
    "perf.simbackend.open_ms": ("perf.simbackend.open", "perf.simbackend.close"),
    "procfs.simproc.read_ms": (
        "procfs.simproc.process",
        "procfs.simproc.list_processes",
        "procfs.simproc.uptime",
    ),
    "core.proclist.refresh_ms": ("core.proclist.refresh",),
    "core.sampler.eval_ms": ("core.sampler.sample", "core.sampler.sample_frame"),
    "core.formatter.render_ms": ("core.formatter.render_batch",),
    "serve.session.publish_ms": ("serve.session.publish",),
    "sim.grid.dispatch_ms": ("sim.grid.run_for",),
    "sim.supervisor.advance_ms": ("sim.supervisor.advance",),
}

#: Span names whose call counts (or counted work) make up each count.
LAYER_COUNTS = {
    "perf.simbackend.reads": ("perf.simbackend.read", "perf.simbackend.read_many"),
    "perf.simbackend.opens": ("perf.simbackend.open",),
    "perf.simbackend.closes": ("perf.simbackend.close",),
    "procfs.simproc.calls": (
        "procfs.simproc.process",
        "procfs.simproc.list_processes",
        "procfs.simproc.uptime",
    ),
}

#: (name, unit) of the per-layer metrics, printed by traced runs. Times
#: and counts are per iteration of the workload's main loop.
PER_LAYER = (
    *((name, "ms/iter") for name in LAYER_SPANS),
    *((name, "count/iter") for name in LAYER_COUNTS),
    ("core.sampler.read_retries", "count/iter"),
    ("core.sampler.read_skips", "count/iter"),
    ("serve.session.encode_hits", "count/iter"),
    ("serve.session.encode_misses", "count/iter"),
    ("serve.session.dropped", "count"),
    ("serve.session.lag_max", "count"),
    ("sim.supervisor.recovery_ms", "ms/iter"),
    ("sim.supervisor.restarts", "count/iter"),
    ("sim.supervisor.replayed_epochs", "count/iter"),
    ("sim.supervisor.adopted_shards", "count/iter"),
    ("sim.supervisor.useful_ratio", "ratio"),
    ("sim.grid.epochs", "count/iter"),
    ("sim.grid.ticks", "count/iter"),
    ("sim.columns.fast_ratio", "ratio"),
    ("bench.layer_coverage", "ratio"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.loop_raw_ms.p50", "ms"),
    ("bench.probe_ms", "ms"),
)


@dataclass
class Result:
    """What one run of one workload found.

    ``values`` holds metric values by name (units come from the tables
    above); ``record`` holds everything else worth keeping with the run.
    """

    correct: bool
    attempted: int
    failed: int
    values: dict[str, float]
    record: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def peak_rss_mb() -> float:
    """Peak resident set of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def loop_metrics(loop_s: list[float], node_seconds: float) -> dict[str, float]:
    """loop_ms.* and sim_s_per_s from normalised per-iteration seconds,
    in time order.

    ``node_seconds`` is the simulated node-seconds one iteration advances.
    """
    loop_ms = [s * 1e3 for s in loop_s]
    return {
        "loop_ms.p50": series_percentile(loop_ms, 50),
        "loop_ms.p90": series_percentile(loop_ms, 90),
        "sim_s_per_s": node_seconds * len(loop_s) / sum(loop_s),
    }


def deliver_metrics(deliver_s: list[float]) -> dict[str, float]:
    """deliver_ms.* from normalised delivery latencies, in time order."""
    deliver_ms = [s * 1e3 for s in deliver_s]
    return {
        "deliver_ms.p50": series_percentile(deliver_ms, 50),
        "deliver_ms.p95": series_percentile(deliver_ms, 95),
    }


def layer_metrics(
    tracer: Tracer, factors: list[float], loop_s: list[float]
) -> dict[str, float]:
    """Per-layer times and counts per iteration, every name present.

    ``bench.layer_coverage`` is the layers' summed self time over the
    summed loop time: near 1 means the spans account for the loop.
    """
    iterations = len(factors)
    own = tracer.self_seconds(factors)
    values = {name: 0.0 for name, _ in PER_LAYER}
    covered = 0.0
    for metric, names in LAYER_SPANS.items():
        seconds = sum(own.get(n, 0.0) for n in names)
        covered += seconds
        values[metric] = seconds * 1e3 / iterations
    for metric, names in LAYER_COUNTS.items():
        values[metric] = sum(tracer.counts[n] for n in names) / iterations
    values["bench.layer_coverage"] = covered / sum(loop_s)
    return values
