"""The columnar pipeline: SnapshotFrame, vectorised exprs, lossless CSV.

Covers the frame container's adapters (rows round-trip exactly), the
vectorised expression evaluator (bitwise-identical to the scalar walker),
the frame-backed Recorder (series match a scalar reference, CSV round
trips losslessly including NaN cells and non-ASCII command names), the
frame-consuming renderers (text identical to the row path), and the
``--profile`` breakdown.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.timeseries import MetricSeries
from repro.core import formatter
from repro.core.app import SimHost, TipTop
from repro.core.batchparse import frames_from_blocks, parse_blocks
from repro.core.cli import main
from repro.core.expr import Expression
from repro.core.frame import SnapshotFrame
from repro.core.options import Options
from repro.core.recorder import Recorder, Sample
from repro.core.sampler import Snapshot
from repro.core.screen import get_screen
from repro.sim.arch import NEHALEM
from repro.sim.machine import SimMachine
from repro.sim.workloads import synthetic


def make_app(procs: int = 6, *, seed: int = 3, delay: float = 2.0) -> TipTop:
    machine = SimMachine(
        NEHALEM, sockets=1, cores_per_socket=2, tick=0.25, seed=seed
    )
    for spec in synthetic.generate_specs(procs, seed=seed):
        machine.spawn(spec.name, synthetic.build(spec, NEHALEM, seed=11))
    return TipTop(SimHost(machine), Options(delay=delay), get_screen("default"))


def values_equal(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return (math.isnan(a) and math.isnan(b)) or a == b
    return a == b


class TestSnapshotFrame:
    def _snapshot(self) -> Snapshot:
        with make_app() as app:
            snapshots = list(app.snapshots(2))
        return snapshots[-1]

    def test_sampler_attaches_frame(self):
        snapshot = self._snapshot()
        assert snapshot.frame is not None
        assert len(snapshot.frame) == len(snapshot.rows)

    def test_to_rows_matches_snapshot_rows(self):
        snapshot = self._snapshot()
        rebuilt = snapshot.frame.to_rows()
        assert rebuilt == snapshot.rows
        for row, back in zip(snapshot.rows, rebuilt):
            assert list(back.values) == list(row.values)
            assert list(back.deltas) == list(row.deltas)

    def test_from_rows_round_trip(self):
        snapshot = self._snapshot()
        lifted = SnapshotFrame.from_rows(
            snapshot.time, snapshot.interval, snapshot.rows
        )
        assert lifted.to_rows() == snapshot.rows
        assert lifted.columns == snapshot.frame.columns

    def test_take_and_select(self):
        frame = self._snapshot().frame
        order = list(range(len(frame)))[::-1]
        flipped = frame.take(order)
        assert flipped.pids.tolist() == frame.pids.tolist()[::-1]
        assert flipped.comms == tuple(reversed(frame.comms))
        mask = frame.cpu_pct >= np.median(frame.cpu_pct)
        kept = frame.select(mask)
        assert len(kept) == int(mask.sum())
        assert set(kept.pids.tolist()) <= set(frame.pids.tolist())

    def test_uids_carried_from_procfs(self):
        frame = self._snapshot().frame
        assert (frame.uids >= 0).all()


class TestVectorisedExpr:
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e9), min_size=1, max_size=9
        ),
        st.lists(
            st.floats(min_value=0.0, max_value=1e9), min_size=1, max_size=9
        ),
    )
    @settings(max_examples=100)
    def test_column_matches_scalar_bitwise(self, xs, ys):
        n = min(len(xs), len(ys))
        xs, ys = xs[:n], ys[:n]
        exprs = [
            "a / b",
            "100 * a / b",
            "(a - b) / (a + b)",
            "-a * 2.5 + b / 3",
            "a / (b - b)",  # division by zero everywhere
        ]
        for text in exprs:
            expression = Expression(text)
            env = {"a": np.asarray(xs), "b": np.asarray(ys)}
            column = expression.evaluate_column(env, n)
            for i in range(n):
                scalar = expression.evaluate({"a": xs[i], "b": ys[i]})
                assert values_equal(float(column[i]), scalar)

    def test_scalar_only_expression_broadcasts(self):
        expression = Expression("3 * 2 + 1")
        assert expression.evaluate_column({}, 4).tolist() == [7.0] * 4

    def test_unknown_identifier_still_raises(self):
        from repro.errors import ExprError

        with pytest.raises(ExprError):
            Expression("nope + 1").evaluate_column({"a": np.ones(2)}, 2)


class TestRecorderColumnar:
    def _recording(self) -> Recorder:
        with make_app(procs=5) as app:
            return app.run_collect(4)

    def test_series_matches_scalar_reference(self):
        recorder = self._recording()
        for pid in recorder.pids():
            for header in ("IPC", "%CPU", "PID", "COMMAND", "missing"):
                for drop_nan in (True, False):
                    times, values = recorder.series(
                        pid, header, drop_nan=drop_nan
                    )
                    ref_t, ref_v = [], []
                    for s in recorder.samples:
                        if s.pid != pid:
                            continue
                        v = s.values.get(header)
                        if not isinstance(v, (int, float)):
                            continue
                        if drop_nan and isinstance(v, float) and math.isnan(v):
                            continue
                        ref_t.append(s.time)
                        ref_v.append(float(v))
                    assert times.tolist() == ref_t
                    assert [
                        values_equal(a, b)
                        for a, b in zip(values.tolist(), ref_v)
                    ] == [True] * len(ref_v)

    def test_total_delta_and_mean_match_reference(self):
        recorder = self._recording()
        pid = recorder.pids()[0]
        ref = sum(
            s.deltas.get("instructions", 0.0)
            for s in recorder.samples
            if s.pid == pid
        )
        assert recorder.total_delta(pid, "instructions") == pytest.approx(ref)
        assert recorder.total_delta(pid, "no-such-event") == 0.0
        _, values = recorder.series(pid, "IPC")
        if len(values):
            assert recorder.mean(pid, "IPC") == pytest.approx(
                float(np.mean(values))
            )

    def test_series_vs_instructions_matches_reference(self):
        recorder = self._recording()
        pid = recorder.pids()[0]
        xs, ys = recorder.series_vs_instructions(pid, "IPC")
        total, ref_x, ref_y = 0.0, [], []
        for s in recorder.samples:
            if s.pid != pid:
                continue
            total += s.deltas.get("instructions", 0.0)
            v = s.values.get("IPC")
            if isinstance(v, (int, float)) and not (
                isinstance(v, float) and math.isnan(v)
            ):
                ref_x.append(total)
                ref_y.append(float(v))
        assert xs.tolist() == pytest.approx(ref_x)
        assert ys.tolist() == ref_y

    def test_metric_series_from_frames(self):
        recorder = self._recording()
        pid = recorder.pids()[0]
        series = MetricSeries.from_frames(recorder.frames, pid, "IPC")
        times, values = recorder.series(pid, "IPC")
        assert series.x.tolist() == times.tolist()
        assert series.y.tolist() == values.tolist()


_comm = st.text(
    alphabet=st.characters(
        blacklist_categories=("Cs",), blacklist_characters="\r\n"
    ),
    min_size=1,
    max_size=12,
)
_metric = st.floats(allow_nan=True, allow_infinity=True, width=64)

_samples = st.lists(
    st.builds(
        Sample,
        time=st.floats(0, 1e6, allow_nan=False),
        pid=st.integers(1, 1 << 22),
        comm=_comm,
        user=_comm,
        cpu_pct=st.floats(0, 100, allow_nan=False),
        deltas=st.dictionaries(
            st.sampled_from(["cycles", "instructions", "cache-misses"]),
            st.floats(0, 1e15, allow_nan=False),
            max_size=3,
        ),
        values=st.fixed_dictionaries({"IPC": _metric, "DMIS": _metric}),
    ),
    max_size=16,
)


class TestLosslessCsv:
    @given(_samples)
    @settings(max_examples=60)
    def test_round_trip_exact(self, samples):
        recorder = Recorder(samples=list(samples))
        back = Recorder.from_csv(recorder.to_csv())
        assert len(back.samples) == len(recorder.samples)
        for original, restored in zip(recorder.samples, back.samples):
            assert restored.time == original.time
            assert restored.pid == original.pid
            assert restored.comm == original.comm
            assert restored.user == original.user
            assert restored.cpu_pct == original.cpu_pct
            for key, value in original.deltas.items():
                assert restored.deltas[key] == value
            for header, value in original.values.items():
                assert values_equal(restored.values[header], float(value))

    def test_full_pipeline_round_trip_is_lossless(self):
        with make_app(procs=5) as app:
            recorder = app.run_collect(3)
        back = Recorder.from_csv(recorder.to_csv())
        assert back.samples == recorder.samples
        for mine, theirs in zip(recorder.frames, back.frames):
            assert mine.columns == theirs.columns
            assert mine.interval == theirs.interval
            assert mine.tids.tolist() == theirs.tids.tolist()
            assert mine.uids.tolist() == theirs.uids.tolist()
            assert mine.processors.tolist() == theirs.processors.tolist()

    def test_nan_metric_and_unicode_comm_cells(self):
        sample = Sample(
            time=1.5,
            pid=7,
            comm="naïve-προ€ess",
            user="üser",
            cpu_pct=12.5,
            deltas={"instructions": 1e7},
            values={"IPC": math.nan},
        )
        back = Recorder.from_csv(Recorder(samples=[sample]).to_csv())
        assert back.samples[0].comm == "naïve-προ€ess"
        assert back.samples[0].user == "üser"
        assert math.isnan(back.samples[0].values["IPC"])

    def test_legacy_format_still_parses(self):
        legacy = (
            "time,pid,comm,user,cpu_pct,instructions\n"
            "1.000,42,lbm,alice,99.50,123456\n"
        )
        recorder = Recorder.from_csv(legacy)
        assert recorder.samples[0].pid == 42
        assert recorder.samples[0].deltas["instructions"] == 123456.0


class TestFrameRendering:
    def test_frame_and_row_renderers_emit_identical_text(self):
        with make_app() as app:
            snapshots = list(app.snapshots(2))
        snapshot = snapshots[-1]
        rows_only = Snapshot(
            time=snapshot.time, interval=snapshot.interval, rows=snapshot.rows
        )
        screen = get_screen("default")
        for threshold in (0.0, 20.0):
            assert formatter.render_frame(
                screen, snapshot, idle_threshold=threshold
            ) == formatter.render_frame(
                screen, rows_only, idle_threshold=threshold
            )
        assert formatter.render_batch(screen, snapshot) == formatter.render_batch(
            screen, rows_only
        )

    def test_batch_blocks_lift_into_frames(self):
        with make_app() as app:
            blocks = app.run_batch(2, write=lambda s: None)
        frames = frames_from_blocks(parse_blocks("".join(blocks)))
        assert len(frames) == 2
        parsed = parse_blocks("".join(blocks))
        for frame, block in zip(frames, parsed):
            assert frame.time == block.time
            assert len(frame) == len(block.rows)
            assert frame.pids.tolist() == [r.pid for r in block.rows]
            assert [h for h, _ in frame.columns] == list(block.headers)


class TestProfileFlag:
    def test_cli_profile_prints_breakdown(self, capsys):
        assert main(["--sim", "-b", "-n", "2", "--profile"]) == 0
        err = capsys.readouterr().err
        lines = [line for line in err.splitlines() if line.startswith("profile:")]
        assert len(lines) == 2
        for line in lines:
            for field in ("advance=", "read=", "eval=", "render=", "tasks="):
                assert field in line

    def test_cli_profile_memo_counters_move(self, capsys):
        """The kernel memos' counters are read from kernel_stats() and
        move on the shipped advance path (they once read 0/0 forever)."""
        assert main(["--sim", "-b", "-n", "3", "--profile"]) == 0
        err = capsys.readouterr().err
        lines = [line for line in err.splitlines() if line.startswith("profile:")]
        assert len(lines) == 3
        for line in lines:
            fields = dict(
                part.split("=", 1) for part in line.split() if "=" in part
            )
            for memo in ("rate_cache", "contention"):
                hits, misses, live = map(int, fields[memo].split("/"))
                assert misses > 0
                assert hits >= 0 and live >= 0

    def test_profile_off_by_default(self, capsys):
        assert main(["--sim", "-b", "-n", "1"]) == 0
        assert "profile:" not in capsys.readouterr().err

    def test_sampler_records_timing(self):
        with make_app() as app:
            list(app.snapshots(1))
            timing = app.sampler.last_timing
        assert timing is not None
        assert timing.tasks > 0
        assert timing.read_seconds >= 0.0
        assert timing.eval_seconds >= 0.0
