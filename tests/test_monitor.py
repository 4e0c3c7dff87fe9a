"""Live sweep monitoring: spans, HTTP monitor, Perfetto export, top."""

import io
import json
import sys
import threading
import time
import urllib.request

import pytest

from repro.cli import main
from repro.common.errors import ReproError
from repro.config import baseline_config, scaled_config
from repro.jobs.scheduler import matrix_jobs, run_jobs
from repro.obs.chrome_trace import (
    chrome_trace,
    export_chrome_trace,
    span_event_count,
    validate_chrome_trace,
)
from repro.obs.progress import (
    JobEvent,
    MonitorState,
    SweepProgress,
    tee_observers,
)
from repro.obs.server import MonitorServer, prometheus_name, render_prometheus
from repro.obs.spans import (
    DISABLED_SPANS,
    SPAN_SCHEMA_VERSION,
    Span,
    SpanObserver,
    SpanRecorder,
    SpanWriter,
    canonical_key,
    canonical_span_set,
    load_spans,
    phase_wall_table,
)
from repro.obs.top import (
    fetch_status,
    render_dashboard,
    run_top,
    status_from_files,
)
from repro.telemetry import Telemetry
from repro.telemetry.registry import StatsRegistry
from repro.trace.workloads import Workload

INSTR = 6_000

CONFIG = scaled_config(baseline_config(), cores=4)

GRID_WORKLOADS = [
    Workload("mixA", ("hmmer", "namd", "povray", "dealII")),
    Workload("mixB", ("hmmer", "sjeng", "gromacs", "namd")),
]
GRID_SCHEMES = ("S-NUCA", "Re-NUCA")


@pytest.fixture(scope="module")
def flat_cpi():
    """Skip the expensive calibration probes; preserves determinism."""
    mp = pytest.MonkeyPatch()
    mp.setattr(
        "repro.sim.runner.calibrated_base_cpi",
        lambda app, config, seed=None: 1.0,
    )
    yield
    mp.undo()


def grid_jobs(seed=7):
    return matrix_jobs(
        GRID_WORKLOADS, GRID_SCHEMES, CONFIG, seed=seed, n_instructions=INSTR
    )


def make_span(name="measure", category="phase", *, span_id="s1",
              parent_id=None, start=1.0, end=2.0, pid=100, **attrs):
    return Span(
        trace_id="tfixed", span_id=span_id, parent_id=parent_id,
        name=name, category=category, start_s=start, end_s=end,
        pid=pid, attrs=attrs,
    )


# -- the span recorder -------------------------------------------------------


class TestSpanRecorder:
    def test_span_nesting_parents_and_records(self):
        rec = SpanRecorder(trace_id="tfixed")
        with rec.span("cell", "job", label="WL1/S-NUCA") as outer:
            with rec.span("measure") as inner:
                assert inner.parent_id == outer.span_id
        # Inner span finishes (and is recorded) first.
        assert [s.name for s in rec.spans] == ["measure", "cell"]
        measure, cell = rec.spans
        assert measure.parent_id == cell.span_id
        assert cell.category == "job" and measure.category == "phase"
        # The context frame's attributes flow down to nested spans.
        assert measure.attrs["label"] == "WL1/S-NUCA"
        assert cell.trace_id == "tfixed"

    def test_ids_deterministic_across_recorders(self):
        def record(trace_id):
            rec = SpanRecorder(trace_id=trace_id)
            with rec.span("cell", "job"):
                with rec.span("measure"):
                    pass
                with rec.span("measure"):
                    pass
            return [s.span_id for s in rec.spans]

        assert record("tsame") == record("tsame")
        assert record("tsame") != record("tother")

    def test_repeated_names_get_distinct_ids(self):
        rec = SpanRecorder(trace_id="tfixed")
        with rec.span("measure"):
            pass
        with rec.span("measure"):
            pass
        first, second = rec.spans
        assert first.span_id != second.span_id

    def test_scope_sets_parent_and_attrs_without_recording(self):
        rec = SpanRecorder(trace_id="tfixed")
        with rec.scope(parent_id="p0", workload="mixA", scheme="S-NUCA"):
            with rec.span("stage1"):
                pass
        assert len(rec.spans) == 1
        span = rec.spans[0]
        assert span.parent_id == "p0"
        assert span.attrs["workload"] == "mixA"
        assert span.attrs["scheme"] == "S-NUCA"

    def test_event_is_an_instant(self):
        rec = SpanRecorder(trace_id="tfixed")
        span = rec.event("retry", label="WL1/S-NUCA")
        assert span.category == "event"
        assert span.start_s == span.end_s
        assert span.duration_s == 0.0

    def test_timestamps_monotonic_within_recorder(self):
        rec = SpanRecorder()
        with rec.span("a"):
            pass
        with rec.span("b"):
            pass
        a, b = rec.spans
        assert a.end_s >= a.start_s
        assert b.start_s >= a.start_s

    def test_sink_sees_each_finished_span(self):
        seen = []
        rec = SpanRecorder(trace_id="tfixed", sink=seen.append)
        with rec.span("cell", "job"):
            rec.event("retry")
        assert [s.name for s in seen] == ["retry", "cell"]

    def test_disabled_recorder_records_nothing(self):
        assert DISABLED_SPANS.enabled is False
        with DISABLED_SPANS.span("measure") as got:
            assert got is None
        assert DISABLED_SPANS.event("retry") is None
        with DISABLED_SPANS.scope(parent_id="p"):
            pass
        assert DISABLED_SPANS.spans == []

    def test_disabled_span_context_is_shared(self):
        # The no-op context manager is a singleton: entering a span on a
        # disabled recorder must not allocate per call.
        rec = SpanRecorder(enabled=False)
        assert rec.span("a") is rec.span("b")

    def test_merge_state_stamps_extra_and_flows_to_sink(self):
        worker = SpanRecorder(trace_id="tfixed")
        with worker.span("measure", workload="mixA"):
            pass
        seen = []
        parent = SpanRecorder(trace_id="tfixed", sink=seen.append)
        parent.merge_state(worker.export_state(), extra={"scheme": "S-NUCA"})
        assert len(parent.spans) == 1
        merged = parent.spans[0]
        assert merged.span_id == worker.spans[0].span_id
        assert merged.attrs["workload"] == "mixA"
        assert merged.attrs["scheme"] == "S-NUCA"
        assert seen == parent.spans

    def test_merge_state_rejects_bad_record(self):
        parent = SpanRecorder(trace_id="tfixed")
        with pytest.raises(ReproError):
            parent.merge_state([{"v": SPAN_SCHEMA_VERSION, "trace": "t"}])


class TestCanonicalKeys:
    def test_volatile_attrs_excluded(self):
        a = make_span(attempt=0, pid=100, workers=1, wall_time_s=1.0,
                      scheme="S-NUCA")
        b = make_span(attempt=2, pid=999, workers=4, wall_time_s=9.0,
                      scheme="S-NUCA", start=5.0, end=9.0, span_id="s2")
        assert canonical_key(a) == canonical_key(b)

    def test_differing_stable_attrs_split_keys(self):
        a = make_span(scheme="S-NUCA")
        b = make_span(scheme="Re-NUCA")
        assert canonical_key(a) != canonical_key(b)

    def test_event_spans_excluded_from_canonical_set(self):
        spans = [
            make_span("cell", "job"),
            make_span("retry", "event", span_id="s2"),
        ]
        keys = canonical_span_set(spans)
        assert len(keys) == 1
        assert keys[0][0] == "job"


class TestSpanObserver:
    def test_dispatch_done_brackets_a_job_span(self):
        rec = SpanRecorder(trace_id="tfixed")
        obs = SpanObserver(rec, parent_id="root")
        obs(JobEvent("dispatch", "WL1/S-NUCA", 0))
        assert obs.open_span_id(0) is not None
        obs(JobEvent("done", "WL1/S-NUCA", 0, wall_time_s=0.5))
        assert obs.open_span_id(0) is None
        (span,) = rec.spans
        assert span.category == "job"
        assert span.parent_id == "root"
        assert span.attrs["status"] == "ok"
        assert span.attrs["label"] == "WL1/S-NUCA"

    def test_failed_closes_with_failed_status(self):
        rec = SpanRecorder(trace_id="tfixed")
        obs = SpanObserver(rec)
        obs(JobEvent("dispatch", "WL1/S-NUCA", 0))
        obs(JobEvent("failed", "WL1/S-NUCA", 0))
        (span,) = rec.spans
        assert span.attrs["status"] == "failed"

    def test_retry_instant_parents_under_open_job(self):
        rec = SpanRecorder(trace_id="tfixed")
        obs = SpanObserver(rec, parent_id="root")
        obs(JobEvent("dispatch", "WL1/S-NUCA", 0))
        obs(JobEvent("retry", "WL1/S-NUCA", 0))
        retry = rec.spans[0]
        assert retry.category == "event"
        assert retry.parent_id == obs.open_span_id(0)

    def test_cache_and_resumed_instants_under_root(self):
        rec = SpanRecorder(trace_id="tfixed")
        obs = SpanObserver(rec, parent_id="root")
        obs(JobEvent("cache", "WL1/S-NUCA", 0))
        obs(JobEvent("resumed", "WL2/S-NUCA", 1))
        assert [s.name for s in rec.spans] == ["cache", "resumed"]
        assert all(s.parent_id == "root" for s in rec.spans)


class TestSpanPersistence:
    def _write(self, tmp_path, spans):
        path = tmp_path / "spans.jsonl"
        with SpanWriter(path) as writer:
            writer.open()
            for span in spans:
                writer.record(span)
        return path

    def test_round_trip(self, tmp_path):
        spans = [make_span("cell", "job"),
                 make_span("measure", span_id="s2", parent_id="s1", k=1)]
        loaded = load_spans(self._write(tmp_path, spans))
        assert loaded == spans

    def test_missing_file_loads_empty(self, tmp_path):
        assert load_spans(tmp_path / "absent.jsonl") == []

    def test_unknown_version_raises(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        record = make_span().to_dict()
        record["v"] = 99
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ReproError, match="unsupported span format"):
            load_spans(path)

    def test_truncate_starts_fresh_append_continues(self, tmp_path):
        path = self._write(tmp_path, [make_span()])
        writer = SpanWriter(path)
        writer.open()  # append mode by default (resume semantics)
        writer.record(make_span(span_id="s2"))
        writer.close()
        assert len(load_spans(path)) == 2
        fresh = SpanWriter(path)
        fresh.open(truncate=True)
        fresh.record(make_span(span_id="s3"))
        fresh.close()
        assert [s.span_id for s in load_spans(path)] == ["s3"]


class TestPhaseWallTable:
    def test_aggregates_phase_spans_only(self):
        spans = [
            make_span("measure", start=0.0, end=2.0),
            make_span("measure", start=0.0, end=4.0, span_id="s2"),
            make_span("stage1", start=0.0, end=1.0, span_id="s3"),
            make_span("cell", "job", span_id="s4"),
            make_span("retry", "event", span_id="s5"),
        ]
        rows = phase_wall_table(spans)
        assert [(r[0], r[1]) for r in rows] == [("measure", 2), ("stage1", 1)]
        name, calls, total, mean = rows[0]
        assert total == pytest.approx(6.0)
        assert mean == pytest.approx(3.0)

    def test_empty_input_empty_table(self):
        assert phase_wall_table([]) == []


# -- the monitor state and HTTP server ---------------------------------------


class TestMonitorState:
    def _drive(self, state):
        state.observe(JobEvent("dispatch", "a", 0))
        state.observe(JobEvent("done", "a", 0, wall_time_s=2.0))
        state.observe(JobEvent("cache", "b", 1))
        state.observe(JobEvent("dispatch", "c", 2))
        state.observe(JobEvent("retry", "c", 2))
        state.observe(JobEvent("failed", "c", 2))

    def test_snapshot_counts_and_counters(self):
        state = MonitorState(4, workers=2, label="unit")
        self._drive(state)
        snap = state.snapshot()
        assert snap["v"] == 1
        assert snap["total"] == 4 and snap["completed"] == 3
        assert snap["counts"]["done"] == 1
        assert snap["counts"]["cached"] == 1
        assert snap["counts"]["failed"] == 1
        assert snap["counts"]["pending"] == 1
        assert snap["counters"]["retries"] == 1
        assert snap["workers"]["configured"] == 2
        assert snap["finished"] is False

    def test_eta_excludes_failed_cells(self):
        # 4 cells: 1 done (2 s), 1 cached, 1 failed, 1 pending.  Only the
        # pending cell is future work: ETA = 1 * 2 s / 2 workers.
        state = MonitorState(4, workers=2)
        self._drive(state)
        assert state.eta_seconds() == pytest.approx(1.0)

    def test_eta_none_before_first_duration(self):
        state = MonitorState(2)
        state.observe(JobEvent("dispatch", "a", 0))
        assert state.eta_seconds() is None

    def test_finish_marks_finished(self):
        state = MonitorState(1)
        state.observe(JobEvent("done", "a", 0, wall_time_s=1.0))
        state.finish()
        snap = state.snapshot()
        assert snap["finished"] is True and snap["eta_s"] == 0.0


class TestPrometheus:
    def test_name_mangling(self):
        assert prometheus_name("jobs.executed") == "repro_jobs_executed"
        assert prometheus_name("llc.fetch-hits") == "repro_llc_fetch_hits"

    def _registry(self):
        registry = StatsRegistry()
        registry.counter("jobs.executed").inc(4)
        registry.counter("jobs.retry.valueerror").inc(2)
        registry.counter("jobs.retry.timeout").inc(1)
        registry.counter("wear.bank3.writes").inc(7)
        registry.gauge("sweep.workers").set(2.0)
        hist = registry.histogram("jobs.wall_time_s")
        for value in (1.0, 2.0, 3.0, 4.0):
            hist.observe(value)
        return registry

    def test_exposition_families(self):
        text = render_prometheus(self._registry())
        assert "# TYPE repro_jobs_executed_total counter" in text
        assert "repro_jobs_executed_total 4" in text
        # Retry kinds collapse onto one labelled family.
        assert 'repro_jobs_retry_total{kind="valueerror"} 2' in text
        assert 'repro_jobs_retry_total{kind="timeout"} 1' in text
        # Per-bank names collapse onto a bank label.
        assert 'repro_wear_writes_total{bank="3"} 7' in text
        assert "repro_sweep_workers 2" in text

    def test_histogram_renders_as_summary(self):
        text = render_prometheus(self._registry())
        assert "# TYPE repro_jobs_wall_time_s summary" in text
        assert 'repro_jobs_wall_time_s{quantile="0.5"}' in text
        assert 'repro_jobs_wall_time_s{quantile="0.99"}' in text
        assert "repro_jobs_wall_time_s_sum 10" in text
        assert "repro_jobs_wall_time_s_count 4" in text
        assert "repro_jobs_wall_time_s_window 4" in text

    def test_snapshot_exposes_window_size(self):
        # The ``.window`` key states how many samples back the quantiles
        # (satellite of the Prometheus ``_window`` gauge).
        registry = self._registry()
        snap = registry.snapshot()
        assert snap["jobs.wall_time_s.window"] == 4.0
        assert snap["jobs.wall_time_s.count"] == 4.0


def _get(url, path):
    with urllib.request.urlopen(url + path, timeout=5) as response:
        return response.status, response.read()


class TestMonitorServer:
    def test_status_metrics_healthz(self):
        state = MonitorState(2, workers=2, label="unit")
        state.observe(JobEvent("done", "a", 0, wall_time_s=1.0))
        registry = StatsRegistry()
        registry.counter("jobs.executed").inc(1)
        with MonitorServer(state, registry=registry) as server:
            assert server.port > 0
            code, body = _get(server.url, "/status")
            assert code == 200
            status = json.loads(body)
            assert status["total"] == 2 and status["counts"]["done"] == 1
            code, body = _get(server.url, "/metrics")
            assert code == 200
            assert b"repro_jobs_executed_total 1" in body
            code, body = _get(server.url, "/healthz")
            assert code == 200 and body == b"ok\n"

    def test_metrics_404_without_registry(self):
        with MonitorServer(MonitorState(1)) as server:
            with pytest.raises(urllib.error.HTTPError) as exc:
                _get(server.url, "/metrics")
            assert exc.value.code == 404
            with pytest.raises(urllib.error.HTTPError) as exc:
                _get(server.url, "/nope")
            assert exc.value.code == 404

    def test_stop_is_idempotent_and_releases_port(self):
        server = MonitorServer(MonitorState(1))
        port = server.start()
        server.stop()
        server.stop()
        rebound = MonitorServer(MonitorState(1), port=port)
        try:
            assert rebound.start() == port
        finally:
            rebound.stop()


# -- the Chrome trace exporter -----------------------------------------------


class TestChromeTrace:
    def _spans(self):
        return [
            make_span("sweep", "sweep", span_id="s0", pid=100,
                      start=0.0, end=10.0, total=2),
            make_span("WL1/S-NUCA", "job", span_id="s1", parent_id="s0",
                      pid=100, start=1.0, end=4.0),
            make_span("measure", "phase", span_id="s2", parent_id="s1",
                      pid=200, start=2.0, end=3.0),
            make_span("retry", "event", span_id="s3", parent_id="s1",
                      pid=100, start=2.5, end=2.5),
        ]

    def test_span_backed_event_count_matches(self):
        trace = chrome_trace(self._spans())
        validate_chrome_trace(trace)
        assert span_event_count(trace) == 4
        assert trace["otherData"]["spans"] == 4

    def test_durable_spans_complete_events_instants_markers(self):
        events = chrome_trace(self._spans())["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        assert len(complete) == 3 and len(instants) == 1
        assert instants[0]["name"] == "retry" and instants[0]["s"] == "t"
        measure = next(e for e in complete if e["name"] == "measure")
        assert measure["dur"] == pytest.approx(1.0 * 1e6)
        assert measure["args"]["parent_id"] == "s1"

    def test_worker_tracks_named_via_metadata(self):
        events = chrome_trace(self._spans())["traceEvents"]
        names = {
            e["pid"]: e["args"]["name"] for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert names == {100: "sweep", 200: "worker 200"}

    def test_timestamps_rebased_to_zero(self):
        events = chrome_trace(self._spans()[1:3])["traceEvents"]
        first = next(e for e in events if e["ph"] == "X")
        assert first["ts"] == pytest.approx(0.0)

    def test_validate_rejects_bad_traces(self):
        with pytest.raises(ReproError):
            validate_chrome_trace([])
        with pytest.raises(ReproError, match="phase"):
            validate_chrome_trace({"traceEvents": [
                {"ph": "Z", "pid": 1, "tid": 1, "ts": 0, "name": "x"},
            ]})
        with pytest.raises(ReproError, match="dur"):
            validate_chrome_trace({"traceEvents": [
                {"ph": "X", "pid": 1, "tid": 1, "ts": 0, "name": "x"},
            ]})

    def test_export_writes_valid_file(self, tmp_path):
        spans_path = tmp_path / "spans.jsonl"
        with SpanWriter(spans_path) as writer:
            writer.open()
            for span in self._spans():
                writer.record(span)
        out = tmp_path / "trace.json"
        count = export_chrome_trace(spans_path, out)
        assert count == 4
        trace = json.loads(out.read_text())
        validate_chrome_trace(trace)
        assert span_event_count(trace) == len(load_spans(spans_path))


# -- repro top ---------------------------------------------------------------


class TestTop:
    def _status(self):
        state = MonitorState(4, workers=2, label="unit")
        state.observe(JobEvent("done", "WL1/S-NUCA", 0, wall_time_s=1.0))
        state.observe(JobEvent("cache", "WL1/Re-NUCA", 1))
        state.observe(JobEvent("dispatch", "WL2/S-NUCA", 2))
        state.observe(JobEvent("failed", "WL2/Re-NUCA", 3))
        return state.snapshot()

    def test_render_dashboard_grid_and_counters(self):
        frame = render_dashboard(self._status())
        assert "repro top — unit" in frame
        assert "cells 3/4" in frame
        assert "#crF" in frame  # the cell grid in submission order
        assert "[  2] WL2/S-NUCA" in frame  # the running lane
        assert "FAILED:" in frame

    def test_run_top_requires_a_source(self):
        with pytest.raises(ReproError, match="--url"):
            run_top()

    def test_offline_mode_renders_once(self, tmp_path):
        spans_path = tmp_path / "spans.jsonl"
        with SpanWriter(spans_path) as writer:
            writer.open()
            writer.record(make_span("sweep", "sweep", span_id="s0",
                                    start=0.0, end=9.0, total=2))
            writer.record(make_span("WL1/S-NUCA", "job", span_id="s1",
                                    parent_id="s0", label="WL1/S-NUCA",
                                    index=0))
            writer.record(make_span("cache", "event", span_id="s2",
                                    parent_id="s0", label="WL1/Re-NUCA",
                                    index=1))
        stream = io.StringIO()
        assert run_top(spans=spans_path, stream=stream) == 0
        frame = stream.getvalue()
        assert "cells 2/2" in frame and "FINISHED" in frame
        assert "#c" in frame

    def test_status_from_files_folds_journal_and_spans(self, tmp_path):
        spans_path = tmp_path / "spans.jsonl"
        with SpanWriter(spans_path) as writer:
            writer.open()
            writer.record(make_span("sweep", "sweep", span_id="s0",
                                    total=3, label="unit"))
            writer.record(make_span("WL1/S-NUCA", "job", span_id="s1",
                                    parent_id="s0", label="WL1/S-NUCA",
                                    index=0, status="failed"))
            writer.record(make_span("retry", "event", span_id="s2",
                                    parent_id="s1", index=0))
        status = status_from_files(None, spans_path)
        assert status["total"] == 3
        assert status["label"] == "unit"
        assert status["counts"]["failed"] == 1
        assert status["counts"]["pending"] == 2
        assert status["counters"]["retries"] == 1
        assert status["finished"] is False

    def test_live_mode_polls_until_finished(self):
        state = MonitorState(1, workers=1)
        state.observe(JobEvent("done", "a", 0, wall_time_s=0.1))
        state.finish()
        with MonitorServer(state) as server:
            stream = io.StringIO()
            assert run_top(url=server.url, interval_s=0.01,
                           stream=stream) == 0
            assert "FINISHED" in stream.getvalue()

    def test_fetch_status_rejects_unreachable_and_bad_version(self):
        with pytest.raises(ReproError, match="cannot reach"):
            fetch_status("http://127.0.0.1:1/status", timeout_s=0.2)


class TestSweepProgressServing:
    def test_serving_suffix_and_remaining(self):
        progress = SweepProgress(total=4, stream=io.StringIO(), workers=2)
        progress.serving = 8123
        progress(JobEvent("done", "a", 0, wall_time_s=1.0))
        progress(JobEvent("failed", "b", 1))
        line = progress.status_line()
        assert "serving :8123" in line
        # The failed cell is resolved, never future work.
        assert progress.remaining == 2

    def test_tee_observers_fan_out(self):
        seen_a, seen_b = [], []

        def observe_a(event):
            seen_a.append(event)

        assert tee_observers(None, None) is None
        assert tee_observers(observe_a, None) is observe_a
        fan = tee_observers(observe_a, seen_b.append)
        event = JobEvent("done", "a", 0)
        fan(event)
        assert seen_a == [event] and seen_b == [event]


# -- engine integration ------------------------------------------------------


class TestSchedulerSpans:
    def test_serial_sweep_records_span_tree(self, flat_cpi, tmp_path):
        spans_path = tmp_path / "spans.jsonl"
        run_jobs(grid_jobs(), spans=spans_path)
        spans = load_spans(spans_path)
        roots = [s for s in spans if s.category == "sweep"]
        jobs = [s for s in spans if s.category == "job"]
        phases = [s for s in spans if s.category == "phase"]
        assert len(roots) == 1
        assert roots[0].attrs["total"] == 4
        assert len(jobs) == 4
        assert all(j.parent_id == roots[0].span_id for j in jobs)
        assert all(j.attrs["status"] == "ok" for j in jobs)
        job_ids = {j.span_id for j in jobs}
        assert phases and all(p.parent_id in job_ids for p in phases)
        assert {p.name for p in phases} >= {"stage1", "measure", "reduce"}
        # Phases inherit the cell context pushed by the scheduler scope.
        assert all("workload" in p.attrs and "scheme" in p.attrs
                   for p in phases)
        # One shared trace id across the whole sweep.
        assert len({s.trace_id for s in spans}) == 1

    def test_parallel_chaos_kill_matches_serial_spans(self, flat_cpi,
                                                      tmp_path):
        serial_rec = SpanRecorder(trace_id="tserial")
        serial_results, _ = run_jobs(grid_jobs(), spans=serial_rec)

        parallel_rec = SpanRecorder(trace_id="tparallel")
        parallel_results, _ = run_jobs(
            grid_jobs(), max_workers=2, spans=parallel_rec,
            chaos="mixA/S-NUCA@0=kill", retries=1, backoff_s=0.0,
        )
        # Identical simulation results...
        for a, b in zip(serial_results, parallel_results):
            assert a.ipc == b.ipc and a.scheme == b.scheme
        # ...and an identical durable span structure, even though one
        # worker was SIGKILLed mid-cell and the cell re-ran elsewhere.
        assert canonical_span_set(parallel_rec.spans) == \
            canonical_span_set(serial_rec.spans)
        # The incident trail differs by design: the kill left a trace.
        incidents = {s.name for s in parallel_rec.spans
                     if s.category == "event"}
        assert "requeue" in incidents

    def test_cache_hits_record_instants(self, flat_cpi, tmp_path):
        cache_dir = tmp_path / "cache"
        run_jobs(grid_jobs(), cache=cache_dir)
        rec = SpanRecorder(trace_id="twarm")
        run_jobs(grid_jobs(), cache=cache_dir, spans=rec)
        cached = [s for s in rec.spans
                  if s.category == "event" and s.name == "cache"]
        assert len(cached) == 4
        assert len([s for s in rec.spans if s.category == "job"]) == 0

    def test_metrics_match_final_registry_snapshot(self, flat_cpi):
        telemetry = Telemetry()
        state = MonitorState(4, workers=2)
        with MonitorServer(state, registry=telemetry.registry) as server:
            run_jobs(grid_jobs(), max_workers=2, telemetry=telemetry,
                     observer=state.observe)
            state.finish()
            _, body = _get(server.url, "/metrics")
            assert _get(server.url, "/status")[1]
        text = body.decode()
        snap = telemetry.registry.snapshot()
        assert snap["jobs.executed"] == 4.0
        assert f"repro_jobs_executed_total {int(snap['jobs.executed'])}" \
            in text
        # The endpoint is a pure render of the registry: at rest the two
        # views agree byte for byte.
        assert text == render_prometheus(telemetry.registry)

    def test_spans_file_appends_on_resume(self, flat_cpi, tmp_path):
        spans_path = tmp_path / "spans.jsonl"
        journal = tmp_path / "journal.jsonl"
        run_jobs(grid_jobs(), journal=journal, spans=spans_path)
        first = len(load_spans(spans_path))
        run_jobs(grid_jobs(), journal=journal, resume=True, spans=spans_path)
        spans = load_spans(spans_path)
        assert len(spans) > first  # resume appended, did not truncate
        resumed = [s for s in spans if s.name == "resumed"]
        assert len(resumed) == 4


# -- CLI end to end ----------------------------------------------------------


class TestMonitoredSweepE2E:
    @pytest.fixture()
    def small_machine(self, flat_cpi, monkeypatch):
        """Shrink the CLI's machine so the E2E sweep stays fast."""
        monkeypatch.setattr("repro.cli.baseline_config", lambda: CONFIG)

    def test_cli_sweep_serve_spans_trace_export(self, small_machine,
                                                tmp_path, monkeypatch,
                                                capsys):
        spans_path = tmp_path / "spans.jsonl"
        journal = tmp_path / "journal.jsonl"
        out = tmp_path / "matrix.json"
        stderr = io.StringIO()
        monkeypatch.setattr(sys, "stderr", stderr)
        # The sweep keeps its monitor up until the test has read /status:
        # the 3-cell sweep could otherwise finish and stop its server
        # between two polls, before any poll saw a resolved cell.
        status_read = threading.Event()
        stop = MonitorServer.stop

        def stop_once_read(server):
            status_read.wait(timeout=120)
            stop(server)

        monkeypatch.setattr(MonitorServer, "stop", stop_once_read)
        codes = []
        thread = threading.Thread(target=lambda: codes.append(main([
            "sweep", "--workloads", "1", "--schemes",
            "S-NUCA", "R-NUCA", "Re-NUCA",
            "--instructions", str(INSTR), "--seed", "1", "-j", "2",
            "--serve", "0", "--spans", str(spans_path),
            "--journal", str(journal), "--out", str(out),
        ])))
        thread.start()
        try:
            # The monitor URL is announced on stderr before the sweep runs.
            url = None
            deadline = time.monotonic() + 60
            while url is None and time.monotonic() < deadline:
                for token in stderr.getvalue().split():
                    if token.startswith("http://127.0.0.1:"):
                        url = token
                        break
                time.sleep(0.02)
            assert url is not None, stderr.getvalue()

            # Poll /status until at least one cell resolved.
            status = None
            metrics = None
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                try:
                    status = fetch_status(url)
                    if status["completed"] >= 1:
                        _, body = _get(url, "/metrics")
                        metrics = body.decode()
                        break
                except (ReproError, OSError):
                    if not thread.is_alive():
                        break
                time.sleep(0.05)
        finally:
            status_read.set()
            thread.join(timeout=300)
        assert not thread.is_alive()
        assert codes == [0]
        assert status is not None and status["completed"] >= 1
        assert status["total"] == 3
        # /metrics spoke Prometheus for the live registry.
        assert metrics is not None
        assert "repro_jobs_" in metrics

        # The span file holds the whole sweep; the exported Chrome trace
        # carries exactly one event per span record.
        spans = load_spans(spans_path)
        assert [s.category for s in spans].count("sweep") == 1
        trace_out = tmp_path / "trace.json"
        assert main(["trace", "export", str(trace_out),
                     "--spans", str(spans_path)]) == 0
        trace = json.loads(trace_out.read_text())
        validate_chrome_trace(trace)
        assert span_event_count(trace) == len(spans)

        # The offline dashboard and the per-phase table read the same files.
        assert main(["top", "--journal", str(journal),
                     "--spans", str(spans_path), "--once"]) == 0
        assert main(["stats", "--from-spans", str(spans_path)]) == 0
        captured = capsys.readouterr().out
        assert "3/3" in captured
        assert "measure" in captured

    def test_stats_from_spans_empty_file(self, tmp_path, capsys):
        spans_path = tmp_path / "spans.jsonl"
        spans_path.write_text("")
        assert main(["stats", "--from-spans", str(spans_path)]) == 0
        assert "no phase spans" in capsys.readouterr().out

    def test_top_cli_requires_a_source(self, capsys):
        assert main(["top"]) == 2
        assert "error:" in capsys.readouterr().err
