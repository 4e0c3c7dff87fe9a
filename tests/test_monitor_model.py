"""The live model of a sweep: one fold of the job-event stream."""

import io
import subprocess
import sys
import threading
import types

import repro.obs.progress as progress_module
from repro.jobs.journal import SweepJournal
from repro.obs.progress import (
    JobEvent,
    MonitorState,
    SweepProgress,
    format_duration,
)
from repro.obs.top import render_dashboard, run_top, status_from_files
from repro.sim.metrics import WorkloadSchemeResult
from repro.sim.store import result_to_dict

from tests.test_monitor_pins import _span, _write_spans

# -- one duration formatter ---------------------------------------------------


class TestFormatDuration:
    def test_every_range(self):
        assert format_duration(None) == "--"
        assert format_duration(0) == "0s"
        assert format_duration(42.4) == "42s"
        assert format_duration(125) == "2m05s"
        assert format_duration(7_200) == "2h00m"

    def test_views_agree_on_a_two_hour_eta(self):
        state = SweepProgress(total=2, stream=io.StringIO())
        state(JobEvent("done", "a", 0, wall_time_s=7_200.0))
        assert state.status_line().endswith("| ETA 2h00m")
        assert "| ETA 2h00m" in render_dashboard(state.snapshot())


# -- the progress line reads the model only when it redraws -------------------


class TestRedrawThrottle:
    def test_snapshot_taken_only_on_redraw(self, monkeypatch):
        progress = SweepProgress(total=100, stream=io.StringIO(),
                                 min_redraw_s=3600.0)
        taken = []
        snapshot = progress.snapshot
        monkeypatch.setattr(progress, "snapshot",
                            lambda: taken.append(1) or snapshot())
        for index in range(50):
            progress(JobEvent("dispatch", f"c{index}", index))
            progress(JobEvent("done", f"c{index}", index, wall_time_s=1.0))
        assert len(taken) == 1  # the first draw; the rest are throttled
        progress.close()
        assert len(taken) == 2

    def test_first_event_draws_whatever_the_clock_reads(self, monkeypatch):
        # time.monotonic()'s epoch is undefined (boot time on Linux), so a
        # host up for 5 s reads 5.0: the first frame must still be drawn.
        monkeypatch.setattr(progress_module, "time",
                            types.SimpleNamespace(monotonic=lambda: 5.0))
        stream = io.StringIO()
        progress = SweepProgress(total=2, stream=stream, min_redraw_s=3600.0)
        progress(JobEvent("dispatch", "c0", 0))
        first = stream.getvalue()
        assert first.startswith("\r[") and "0/2 cells" in first
        progress(JobEvent("dispatch", "c1", 1))
        assert stream.getvalue() == first  # throttled from the first frame


# -- offline: the journal replays as completed cells --------------------------


def _journal(path, cells):
    """A sweep journal holding one completed record per (workload, scheme)."""
    log = SweepJournal(path)
    log.open()
    for number, (workload, scheme) in enumerate(cells):
        result = WorkloadSchemeResult.failed_cell(
            workload=workload, scheme=scheme, apps=("namd",), n_banks=4,
            reason="fixture",
        )
        log.write({"v": 1, "fingerprint": f"f{number}", "workload": workload,
                   "scheme": scheme, "result": result_to_dict(result)})
    log.close()


class TestJournalReplay:
    CELLS = (("WL1", "S-NUCA"), ("WL1", "Re-NUCA"))

    def test_journal_only_view_counts_completed_cells(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        _journal(journal, self.CELLS)
        status = status_from_files(journal)
        assert status["total"] == 2 and status["completed"] == 2
        assert status["counts"]["done"] == 2
        assert [cell["label"] for cell in status["cells"]] == [
            "WL1/S-NUCA", "WL1/Re-NUCA",
        ]
        stream = io.StringIO()
        assert run_top(journal=journal, once=True, stream=stream) == 0
        assert "cells 2/2 | done 2" in stream.getvalue()

    def test_span_cells_win_and_nothing_counts_twice(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        _journal(journal, self.CELLS + (("WL2", "S-NUCA"),))
        spans_path = tmp_path / "spans.jsonl"
        _write_spans(spans_path, (
            _span("WL1/S-NUCA", "job", "j0", start=0.0, end=2.0,
                  label="WL1/S-NUCA", index=0, status="ok"),
            _span("resumed", "event", "e1", start=0.0, end=0.0,
                  label="WL1/Re-NUCA", index=1),
        ))
        status = status_from_files(journal, spans_path)
        # Two cells from the span file, one more only the journal knows.
        assert status["total"] == 3 and status["completed"] == 3
        assert [(c["index"], c["label"], c["state"], c["wall_time_s"])
                for c in status["cells"]] == [
            (0, "WL1/S-NUCA", "done", 2.0),
            (1, "WL1/Re-NUCA", "resumed", 0.0),
            (2, "WL2/S-NUCA", "done", 0.0),
        ]

    def test_fault_cell_labels_match_journal_records(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        _journal(journal, (("WL1", "Re-NUCA"),))
        spans_path = tmp_path / "spans.jsonl"
        _write_spans(spans_path, (
            _span("WL1/Re-NUCA@age0.5", "job", "j0", start=0.0, end=1.0,
                  label="WL1/Re-NUCA@age0.5", index=0, status="ok"),
        ))
        assert status_from_files(journal, spans_path)["completed"] == 1


# -- the model lives apart from the HTTP server -------------------------------


def test_cli_import_does_not_load_http_server():
    code = ("import sys, repro.cli, repro.obs.top; "
            "print('http.server' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


def test_snapshots_stay_consistent_while_events_arrive():
    """A reader thread never sees a half-folded event."""
    total = 400
    state = MonitorState(total, workers=4)
    seen = []

    def read() -> None:
        while len(seen) < 200:
            status = state.snapshot()
            counts = status["counts"]
            seen.append((
                sum(counts.values()) == total,
                status["completed"] == total - counts["pending"]
                - counts["running"],
            ))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        reader = threading.Thread(target=read)
        reader.start()
        for index in range(total):
            state.observe(JobEvent("dispatch", f"c{index}", index))
            state.observe(JobEvent("retry", f"c{index}", index))
            state.observe(JobEvent("done", f"c{index}", index,
                                   wall_time_s=1.0))
        reader.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not reader.is_alive()
    assert seen and all(all(checks) for checks in seen)
    assert state.snapshot()["counters"]["retries"] == total
