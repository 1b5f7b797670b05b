"""Partition recovery cost for the supervised grid engine.

The netchaos kernel severs shard links mid-run; the supervisor must
bring the run back — retry lost requests, fence stale replies, heal
partitions on the attempt axis — without rewriting history (digests stay
serial-equal) and without pathological cost. This benchmark drives the
``test_grid_scaling`` mix through three configurations and records the
sweep in ``BENCH_partition.json``:

* ``supervised-clean`` — supervision on, healthy links (baseline),
* ``supervised-partition`` — a two-attempt partition that heals plus a
  lost request (detection + restart + replay + resume),
* ``supervised-splitbrain`` — a half-open link and a duplicated reply
  (the fencing path: stale answers rejected, not double-applied).

All three must agree bitwise with the serial engine on every run, smoke
or full (the CI guard that recovery is exact). The timing floor only
applies to the full run: a healed partition costs <= 5x the clean
supervised run, measured per dispatched epoch so queue-shape noise
cancels. ``REPRO_BENCH_SMOKE=1`` shrinks the sweep, skips the floor
(shared runners make ratios unreliable) and writes
``BENCH_partition_smoke.json`` instead, leaving the committed full-run
artifact alone.
"""

from __future__ import annotations

import json
import os
import time

from _harness import OUT_DIR

from repro.sim.grid import Grid
from repro.sim.netchaos import NetChaosPlan, NetFaultSpec
from repro.sim.supervisor import Supervision

from test_grid_scaling import fleet, populate

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
N_NODES = 4 if SMOKE else 8
SPAN_SECONDS = 45.0 if SMOKE else 240.0
REPEATS = 1 if SMOKE else 3
OUT_NAME = "BENCH_partition_smoke.json" if SMOKE else "BENCH_partition.json"
RECOVERY_MAX_OVERHEAD = 5.0

SUPERVISION = Supervision(deadline=30.0, backoff_base=0.0)

#: A partition that heals after two attempts on link 0 plus one lost
#: request on link 1 — the recovery path end to end.
PARTITION = NetChaosPlan(
    seed=0,
    specs=(
        NetFaultSpec("partition", at_epochs=frozenset({0}), link=0,
                     duration=2),
        NetFaultSpec("drop", at_epochs=frozenset({1}), link=1),
    ),
)

#: The split-brain shapes: an applied epoch whose reply is lost (the
#: stale answer must be fenced after the restart) and a duplicated
#: reply whose second copy must be discarded.
SPLITBRAIN = NetChaosPlan(
    seed=0,
    specs=(
        NetFaultSpec("half_open", at_epochs=frozenset({0}), link=0),
        NetFaultSpec("duplicate", at_epochs=frozenset({1}), link=0),
    ),
)

CONFIGS = (
    ("supervised-clean", None),
    ("supervised-partition", PARTITION),
    ("supervised-splitbrain", SPLITBRAIN),
)


def run_config(plan: NetChaosPlan | None):
    """Best-of-N wall time per epoch plus digest and recovery counters."""
    best = float("inf")
    digest = None
    stats: dict = {}
    counters: dict = {}
    for _ in range(REPEATS):
        with Grid(fleet(N_NODES), tick=1.0, seed=42, workers=2,
                  engine="supervised", net_chaos=plan,
                  supervision=SUPERVISION) as grid:
            populate(grid, N_NODES)
            t0 = time.perf_counter()
            grid.run_for(SPAN_SECONDS)
            seconds = time.perf_counter() - t0
            epochs = max(1, grid.stats["epochs"])
            best = min(best, seconds / epochs)
            digest = grid.conformance_digest()
            stats = dict(getattr(grid.engine, "stats", {}))
            counters = {
                "net_faults": grid.engine.net_faults(),
                "fenced_replies": grid.engine.fenced_replies(),
            }
    return best, digest, stats, counters


def test_partition_recovery():
    with Grid(fleet(N_NODES), tick=1.0, seed=42, workers=1,
              engine="serial") as grid:
        populate(grid, N_NODES)
        grid.run_for(SPAN_SECONDS)
        reference = grid.conformance_digest()

    results = {}
    for label, plan in CONFIGS:
        per_epoch, digest, stats, counters = run_config(plan)
        assert digest == reference, f"{label} diverged from serial"
        results[label] = (per_epoch, stats, counters)

    part_stats = results["supervised-partition"][1]
    part_counters = results["supervised-partition"][2]
    assert part_counters["net_faults"] >= 2
    assert part_stats["failures"]["unreachable"] >= 2
    assert part_stats["restarts"] >= 2
    assert not part_stats["degraded"]

    brain_counters = results["supervised-splitbrain"][2]
    assert brain_counters["net_faults"] >= 2
    assert brain_counters["fenced_replies"] >= 1

    clean = results["supervised-clean"][0]
    partition = results["supervised-partition"][0]
    splitbrain = results["supervised-splitbrain"][0]
    recovery = partition / clean
    fencing = splitbrain / clean
    print(
        f"\nclean={1e3 * clean:.2f}ms/epoch "
        f"partition={1e3 * partition:.2f}ms/epoch ({recovery:.2f}x) "
        f"splitbrain={1e3 * splitbrain:.2f}ms/epoch ({fencing:.2f}x)"
    )

    payload = {
        "scenario": {
            "nodes": N_NODES,
            "span_seconds": SPAN_SECONDS,
            "tick": 1.0,
            "seed": 42,
            "workers": 2,
            "repeats": REPEATS,
            "smoke": SMOKE,
            "faults": {
                label: [
                    {"kind": s.kind, "at_epochs": sorted(s.at_epochs or ()),
                     "link": s.link, "duration": s.duration}
                    for s in plan.specs
                ]
                for label, plan in CONFIGS
                if plan is not None
            },
        },
        "targets": {"recovery_max_overhead": RECOVERY_MAX_OVERHEAD},
        "results": {
            label: {
                "seconds_per_epoch": round(per_epoch, 6),
                "restarts": stats.get("restarts", 0),
                "replayed_epochs": stats.get("replayed_epochs", 0),
                "failures": stats.get("failures", {}),
                **counters,
            }
            for label, (per_epoch, stats, counters) in results.items()
        },
        "partition_recovery_overhead": round(recovery, 3),
        "splitbrain_fencing_overhead": round(fencing, 3),
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / OUT_NAME).write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    if not SMOKE:
        assert recovery <= RECOVERY_MAX_OVERHEAD, (
            f"healed partition costs {recovery:.2f}x per epoch over clean"
        )
        assert fencing <= RECOVERY_MAX_OVERHEAD, (
            f"split-brain fencing costs {fencing:.2f}x per epoch over clean"
        )
