"""Spans and counts taken from outside the program, at its public boundaries.

Nothing under ``src/`` knows it is traced: the benchmark wraps public
methods on the instances it builds (``sampler.sample_frame``,
``grid.engine.advance``, ...) and passes :class:`Proxy` objects into public
constructors in place of the perf backend and the ``/proc`` reader.

Spans are kept in memory as tuples and written as JSONL when the run ends.
Every span carries the iteration it belongs to (all spans of one refresh or
one grid step share it) and its parent, so a layer's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter, defaultdict
from collections.abc import Callable, Iterable
from pathlib import Path
from time import perf_counter


class Tracer:
    """In-memory span recorder with per-span self time."""

    def __init__(self) -> None:
        #: (id, parent id or 0, iteration, name, start, end, self seconds)
        self.spans: list[tuple[int, int, int, str, float, float, float]] = []
        #: Work counts per span name over the measured iterations, e.g.
        #: counter handles read.
        self.counts: Counter[str] = Counter()
        #: Iteration the next spans belong to; -1 while setting up.
        self.iteration = -1
        self._stack: list[list] = []
        self._ids = itertools.count(1)

    def begin(self, name: str) -> None:
        self._stack.append([next(self._ids), name, perf_counter(), 0.0])

    def end(self) -> float:
        """Close the innermost span; returns its duration."""
        now = perf_counter()
        span_id, name, start, children = self._stack.pop()
        duration = now - start
        parent = 0
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        self.spans.append(
            (span_id, parent, self.iteration, name, start, now, duration - children)
        )
        return duration

    def wrap(
        self,
        name: str,
        fn: Callable,
        count: Callable[[tuple], int] | None = None,
    ) -> Callable:
        """``fn`` run inside a span named ``name``.

        ``count`` maps the call's positional arguments to the work it
        represents (default: one per call), summed into ``counts[name]``.
        """

        def traced(*args, **kwargs):
            if self.iteration >= 0:
                self.counts[name] += 1 if count is None else count(args)
            self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()

        return traced

    def self_seconds(self, factors: list[float]) -> dict[str, float]:
        """Normalised self time per span name, summed over the iterations.

        ``factors[i]`` is iteration i's reference-speed factor; spans
        outside the measured iterations (set-up) are left out.
        """
        totals: dict[str, float] = defaultdict(float)
        for _, _, iteration, name, _, _, own in self.spans:
            if 0 <= iteration < len(factors):
                totals[name] += own * factors[iteration]
        return dict(totals)

    #: Field order of each span line in the JSONL output.
    FIELDS = ("id", "parent", "iter", "name", "start", "end", "self")

    def write_jsonl(self, path: Path, header: dict) -> None:
        """One header line (with the span field names and the counts),
        then one JSON array per span, in end order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write(json.dumps({"header": header, "fields": self.FIELDS,
                                  "counts": self.counts}) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


class Proxy:
    """Stands in for ``inner``; the named methods run inside spans.

    Every other attribute, read or written, goes straight to ``inner``, so
    the program sees the object it expects.
    """

    def __init__(
        self,
        inner: object,
        tracer: Tracer,
        layer: str,
        methods: Iterable[str],
        counts: dict[str, Callable[[tuple], int]] | None = None,
    ) -> None:
        object.__setattr__(self, "_inner", inner)
        counts = counts or {}
        for method in methods:
            object.__setattr__(
                self,
                method,
                tracer.wrap(
                    f"{layer}.{method}",
                    getattr(inner, method),
                    counts.get(method),
                ),
            )

    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    def __setattr__(self, name: str, value: object) -> None:
        setattr(self._inner, name, value)


def trace_method(tracer: Tracer, obj: object, method: str, name: str) -> None:
    """Replace ``obj.method`` on this instance by a traced wrapper.

    Calls the program makes through ``self.method`` then run inside the
    span; the class and every other instance are untouched.
    """
    setattr(obj, method, tracer.wrap(name, getattr(obj, method)))
