"""Reference-speed normalisation and span bookkeeping.

Run with ``python3 -m pytest perfbench/tests``.
"""

import pytest

from calibrate import PROBE_REF_MS, Calibrator, probe_work
from tracing import Proxy, Tracer

BASE_PROBE_S = 0.9e-3
SAMPLE_WORK_S = 0.02


def slowed_calibrator(slowdown: float) -> Calibrator:
    """A calibrator on a host ``slowdown`` times slower than BASE_PROBE_S."""
    return Calibrator(probe=lambda: BASE_PROBE_S * slowdown)


@pytest.mark.parametrize("slowdown", [1.0, 1.3, 1.7, 4.0])
def test_slowdown_on_probe_and_sample_cancels(slowdown):
    cal = slowed_calibrator(slowdown)
    cal.mark()
    normalised = SAMPLE_WORK_S * slowdown * cal.factor()
    assert normalised == pytest.approx(SAMPLE_WORK_S * PROBE_REF_MS / 1e3 / BASE_PROBE_S)


def test_speed_change_between_samples_is_tracked():
    """A host that slows down mid-run: each sample gets its own factor."""
    speeds = iter([1.0, 1.0, 2.0, 2.0, 2.0, 1.0])
    cal = Calibrator(probe=lambda: BASE_PROBE_S * next(speeds))
    cal.mark()
    first = SAMPLE_WORK_S * 1.0 * cal.factor()  # probes 1.0, 1.0
    cal.mark()
    second = SAMPLE_WORK_S * 2.0 * cal.factor()  # probes 2.0, 2.0
    assert first == pytest.approx(second)


@pytest.mark.parametrize("slowdown", [1.0, 2.5])
def test_normalise_stages_cancels_slowdown(slowdown):
    now = [0.0]

    def build():
        for _ in range(3):
            now[0] += SAMPLE_WORK_S * slowdown
            yield
        now[0] += SAMPLE_WORK_S * slowdown
        return "built"

    cal = Calibrator(probe=lambda: BASE_PROBE_S * slowdown, clock=lambda: now[0])
    seconds, result = cal.normalise_stages(build())
    assert result == "built"
    assert seconds == pytest.approx(4 * SAMPLE_WORK_S * PROBE_REF_MS / 1e3 / BASE_PROBE_S)


def test_normalise_stages_tracks_a_mid_build_slowdown():
    """Stages on a host that halves its speed half-way through set-up."""
    now = [0.0]
    speeds = iter([1.0, 1.0, 1.0, 2.0, 2.0])

    def build():
        for speed in (1.0, 1.0, 2.0):
            now[0] += SAMPLE_WORK_S * speed
            yield
        now[0] += SAMPLE_WORK_S * 2.0

    cal = Calibrator(probe=lambda: BASE_PROBE_S * next(speeds), clock=lambda: now[0])
    seconds, _ = cal.normalise_stages(build())
    per_stage = SAMPLE_WORK_S * PROBE_REF_MS / 1e3 / BASE_PROBE_S
    # The stage that straddles the change is split by the mean probe.
    assert seconds == pytest.approx(per_stage * (1 + 1 + 2 / 1.5 + 1))


def test_summary_records_spread():
    speeds = iter([1.0, 1.0, 1.0, 3.0])
    cal = Calibrator(probe=lambda: BASE_PROBE_S * next(speeds))
    for _ in range(4):
        cal.probe()
    summary = cal.summary()
    assert summary["probe_ref_ms"] == PROBE_REF_MS
    assert summary["probes"] == 4
    assert summary["probe_iqr_ms"] > 0


def test_real_probe_runs_and_keeps_gc_state():
    import gc

    assert probe_work() > 0
    cal = Calibrator()
    was = gc.isenabled()
    assert 0 < cal.probe() < 1.0
    assert gc.isenabled() == was


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.iteration = 0
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    spans = {s[3]: s for s in tracer.spans if s[3] == "outer"}
    outer_span = spans["outer"]
    inner_spans = [s for s in tracer.spans if s[3] == "inner"]
    children = sum(s[5] - s[4] for s in inner_spans)
    assert all(s[1] == outer_span[0] for s in inner_spans)
    assert outer_span[6] == pytest.approx(outer_span[5] - outer_span[4] - children)
    own = tracer.self_seconds([1.0])
    assert own["outer"] + own["inner"] == pytest.approx(outer_span[5] - outer_span[4])
    assert tracer.counts == {"outer": 1, "inner": 3}


def test_setup_spans_are_not_counted():
    tracer = Tracer()
    tracer.wrap("open", lambda: None)()
    tracer.iteration = 0
    tracer.wrap("open", lambda: None)()
    assert tracer.counts["open"] == 1
    assert set(tracer.self_seconds([1.0])) == {"open"}


def test_proxy_forwards_everything_but_traced_methods():
    class Backend:
        faults = None

        def read_many(self, handles):
            return [h * 2 for h in handles]

    inner = Backend()
    tracer = Tracer()
    tracer.iteration = 0
    proxy = Proxy(inner, tracer, "perf", ("read_many",),
                  counts={"read_many": lambda args: len(args[0])})
    assert proxy.read_many([1, 2, 3]) == [2, 4, 6]
    proxy.faults = "plan"
    assert inner.faults == "plan"
    assert tracer.counts["perf.read_many"] == 3
