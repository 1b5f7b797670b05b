"""Reference-speed normalisation: a fixed calibration probe next to every sample.

The hosts this benchmark runs on change speed by up to 1.7x within tens of
milliseconds (shared cores, frequency steps), so raw wall time and CPU time
both swing more than any regression worth catching. Every timed sample is
therefore bracketed by a run of :func:`probe_work`, a fixed ~1 ms mix of
string building, interpreter work on small objects and dicts and small
numpy ops, run with the garbage collector off. A host time is reported as::

    raw * PROBE_REF_MS / probe_now

where ``probe_now`` is the mean of the probes just before and just after
the sample, and :data:`PROBE_REF_MS` is the probe's median on the reference host, frozen
here. A normalised value therefore reads as milliseconds on a
reference-speed host.

What it cannot correct: slowdowns that hit the sample but not the probe
(another tenant thrashing the last-level cache hurts the simulator's larger
working set more than the probe's), a speed change in the middle of a
sample (the two bracketing probes disagree; the mean splits the
difference), and changes to the probe's own cost (a new numpy or Python
release moves ``PROBE_REF_MS``'s meaning, which is why every result
records the versions and the run's probe median).
"""

from __future__ import annotations

import gc
import hashlib
import os
import platform
import statistics
import subprocess
import time
from collections.abc import Callable, Iterator
from pathlib import Path

import numpy as np

#: Rounded median of :func:`probe_work` on the reference host (2-core
#: x86-64 VM, Python 3.11, numpy 2.4). Frozen: changing it rescales every
#: host time.
PROBE_REF_MS = 1.0


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a: int) -> None:
        self.a = a
        self.b = 2 * a


_CELLS = [_Cell(i) for i in range(256)]
_VEC = np.linspace(0.0, 1.0, 1024)
_PERM = np.random.default_rng(0).permutation(1024)


def probe_work() -> int:
    """The fixed calibration work (~1 ms on the reference host).

    By time, about 70% string formatting and joining, 20% attribute and
    dict traffic in the interpreter and 10% small numpy kernels with fancy
    indexing. The weights were chosen by measurement on the reference host:
    across its quiet and its contended phases this mix tracked both the
    tool's refresh and the grid's step better than probes weighted to the
    interpreter, to numpy or to memory traffic.
    """
    acc = 0
    table: dict[int, int] = {}
    for _ in range(6):
        for cell in _CELLS:
            acc = (acc * 31 + cell.a + cell.b) & 0xFFFF
            table[cell.a & 63] = acc
    vec = _VEC
    for _ in range(4):
        vec = np.sqrt(vec * 1.0001 + 0.5)
        acc += int(np.argsort(vec[_PERM][:256])[0])
    text = "\n".join(
        f"{i:6d} {table[i & 63] / 3.0:10.4f} {'x' * (i % 7)}" for i in range(450)
    )
    return acc + len(text)


def _timed_probe() -> float:
    """One probe run in seconds, with the collector off for its duration."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        probe_work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Calibrator:
    """Runs probes next to samples and scales samples to reference speed.

    Args:
        probe: a zero-argument callable returning one probe's duration in
            seconds (tests pass a fake to simulate a slow host).
        clock: the clock :meth:`normalise_stages` times with.
    """

    def __init__(
        self,
        probe: Callable[[], float] = _timed_probe,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.ref_s = PROBE_REF_MS / 1e3
        self._probe = probe
        self._clock = clock
        #: Every probe duration taken, in seconds.
        self.probes: list[float] = []
        self._last: float | None = None

    def probe(self) -> float:
        """Run one probe and remember it."""
        seconds = self._probe()
        self.probes.append(seconds)
        return seconds

    def warm(self) -> None:
        """Run 20 probes so caches and lazy set-up settle, then start fresh."""
        for _ in range(20):
            self._probe()
        self._last = None

    def mark(self) -> None:
        """Probe before the first sample of a sequence."""
        self._last = self.probe()

    def factor(self) -> float:
        """Probe after a sample; returns the factor that normalises it.

        The factor is ``ref / mean(probe before, probe after)``; the probe
        after this sample is the probe before the next one.
        """
        if self._last is None:
            self.mark()
        before = self._last
        self._last = self.probe()
        return self.ref_s / ((before + self._last) / 2)

    def normalise_stages(self, stages: Iterator) -> tuple[float, object]:
        """Time a long one-off piece of work, such as set-up, stage by stage.

        ``stages`` is a generator that yields between stages of ~10-50 ms
        and returns its result. Each stage is normalised by the probes
        just before and after it, like a loop sample, so a speed change
        part way through is tracked; the probes are not timed. Returns
        ``(normalised seconds, the generator's result)``.
        """
        total = 0.0
        self.mark()
        while True:
            t0 = self._clock()
            try:
                next(stages)
            except StopIteration as stop:
                raw = self._clock() - t0
                return total + raw * self.factor(), stop.value
            raw = self._clock() - t0
            total += raw * self.factor()

    def summary(self) -> dict:
        """Probe median and quartile spread of this run, for the record."""
        ms = [p * 1e3 for p in self.probes] or [float("nan")]
        q1, _, q3 = quantiles(ms, 4)
        median = statistics.median(ms)
        return {
            "probe_ref_ms": self.ref_s * 1e3,
            "probe_median_ms": median,
            "probe_iqr_ms": q3 - q1,
            "probe_spread": (q3 - q1) / median if median else float("nan"),
            "probes": len(self.probes),
        }


def run_stages(stages: Iterator) -> object:
    """Run a staged build (see :meth:`Calibrator.normalise_stages`) untimed."""
    while True:
        try:
            next(stages)
        except StopIteration as stop:
            return stop.value


def quantiles(values: list[float], n: int) -> list[float]:
    """``statistics.quantiles`` that also accepts a single value."""
    if len(values) < 2:
        return [values[0]] * (n - 1)
    return statistics.quantiles(values, n=n)


def percentile(values: list[float], pct: int) -> float:
    """The ``pct``-th percentile (pct in 1..99) of ``values``."""
    if pct == 50:
        return statistics.median(values)
    return quantiles(values, 100)[pct - 1]


def series_percentile(series: list[float], pct: int) -> float:
    """A percentile of a run's time series that one bad stretch cannot move.

    The series (in time order) is cut into five consecutive pieces; the
    result is the median of the piece percentiles. A burst of host noise
    that lands in one piece changes that piece only.
    """
    parts = 5
    size = len(series) // parts
    if size < 2:
        return percentile(series, pct)
    pieces = [series[i * size:(i + 1) * size] for i in range(parts)]
    return statistics.median(percentile(piece, pct) for piece in pieces)


def host_info(root: Path, seed: int) -> dict:
    """What makes a result comparable: host, versions, code, seed."""
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "commit": _commit(root),
        "src_digest": _src_digest(root / "src"),
        "seed": seed,
    }


def _commit(root: Path) -> str | None:
    """HEAD's hash when ``root`` itself is a git work tree, else None."""
    if not (root / ".git").exists():
        return None  # never let git search the directories above
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2:
        return None
    if Path(lines[0]).resolve() != root.resolve():
        return None  # an enclosing repository, not this checkout
    return lines[1]


def _src_digest(src: Path) -> str:
    """sha256 over the program's sources: names the code when git cannot."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]
