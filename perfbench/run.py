"""One benchmark run: ``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1``.

Builds nothing: the program is the Python package under ``src/`` of the
checkout this file sits in, imported from there. Prints a record line
(host, versions, calibration, per-run details) and, as the last line of
standard output, the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics; with
``--trace 1`` they are the per-layer metrics, and the spans go to
``perfbench/out/trace-<workload>-<seed>.jsonl``. Exits 1 when an output
check fails, 2 when the checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

#: Workload name -> module implementing ``run(seed, seconds, cal, tracer)``.
WORKLOADS = {
    "tool-steady": "tool_steady",
    "serve-churn": "serve_churn",
    "grid-recover": "grid_recover",
}


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from calibrate import Calibrator, host_info
    from metrics import END_TO_END, PER_LAYER
    from tracing import Tracer

    workload = importlib.import_module(WORKLOADS[args.workload])
    cal = Calibrator()
    cal.warm()
    tracer = Tracer() if args.trace else None
    result = workload.run(args.seed, args.seconds, cal, tracer)

    probe = result.record.pop("probe", None) or cal.summary()
    header = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "host": host_info(ROOT, args.seed),
        "calibration": probe,
        "run": result.record,
        "problems": result.problems,
    }
    table = PER_LAYER if args.trace else END_TO_END
    if args.trace:
        result.values["bench.probe_ms"] = probe["probe_median_ms"]
        if tracer is not None and tracer.spans:  # serve-churn traces in its daemon
            tracer.write_jsonl(
                OUT_DIR / f"trace-{args.workload}-{args.seed}.jsonl",
                {**header, "metrics": result.values},
            )
    for problem in result.problems:
        print(f"perfbench: {args.workload}: {problem}", file=sys.stderr)
    print(json.dumps(header))
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": result.values[name], "unit": unit}
                    for name, unit in table
                },
            }
        )
    )
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
