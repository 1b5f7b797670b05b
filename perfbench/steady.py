"""Steadiness report: run one workload K times, one seed each, and show how
much every metric moves between runs.

    python3 perfbench/steady.py --workload tool-steady --runs 5 [--seconds 20]

For each metric it prints the median, the quartiles and the spread
``(q3 - q1) / median`` over the K runs, as ``statistics.quantiles(n=4)``
gives them, next to the metric's bound from ``BENCHMARK.json``. A spread
above a third of the bound is marked ``NOISY``. Runs go one after another,
never in parallel, so they do not slow each other down.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _bounds() -> tuple[dict[str, float], float]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    return bounds, spec["run_seconds"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/steady.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)
    bounds, run_seconds = _bounds()
    seconds = args.seconds or run_seconds

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        summary = []
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
            summary.append(f"{name}={metric['value']:.4g}")
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              + " ".join(summary), flush=True)

    print(f"\n{args.workload}: {args.runs} runs x {seconds:g} s")
    print(f"{'metric':32s} {'unit':10s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    noisy = False
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and not spread <= bound / 3:
            flag, noisy = "NOISY", True
        print(f"{name:32s} {units[name]:10s} {median:12.5g} {q1:12.5g} {q3:12.5g} "
              f"{spread:8.3f} {bound if bound is not None else '-':>6} {flag}")
    return 1 if noisy else 0


if __name__ == "__main__":
    sys.exit(main())
