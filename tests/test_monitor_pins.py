"""Pins of the live and offline sweep views.

``TestLivePin`` feeds one event sequence covering every event kind to
the progress line and the ``/status`` model; ``TestOfflinePin`` reads
one span file holding every span kind ``repro top`` replays.  Both fix
the exact text and documents, so a refactor of the model must leave
them unchanged.
"""

import io

from repro.obs import MonitorState, SweepProgress
from repro.obs.progress import EVENT_KINDS, JobEvent
from repro.obs.spans import Span, SpanWriter
from repro.obs.top import status_from_files

#: One sweep of 7 cells that visits every event kind: a cell retried,
#: timed out and requeued before it finished, a cache hit, a journal
#: resume, a quarantined cell, two cells in flight and one pending.
PIN_EVENTS = (
    JobEvent("dispatch", "WL1/S-NUCA", 0),
    JobEvent("retry", "WL1/S-NUCA", 0),
    JobEvent("timeout", "WL1/S-NUCA", 0),
    JobEvent("requeue", "WL1/S-NUCA", 0),
    JobEvent("done", "WL1/S-NUCA", 0, wall_time_s=3.0),
    JobEvent("cache", "WL1/Re-NUCA", 1),
    JobEvent("resumed", "WL2/S-NUCA", 2),
    JobEvent("dispatch", "WL2/Re-NUCA", 3),
    JobEvent("failed", "WL2/Re-NUCA", 3),
    JobEvent("dispatch", "WL3/S-NUCA", 4),
    JobEvent("dispatch", "WL3/Re-NUCA", 5),
)


class TestLivePin:
    def test_sequence_covers_every_event_kind(self):
        assert {event.kind for event in PIN_EVENTS} == set(EVENT_KINDS)

    def test_progress_line(self):
        progress = SweepProgress(total=7, workers=2, stream=io.StringIO(),
                                 min_redraw_s=0.0)
        for event in PIN_EVENTS:
            progress(event)
        assert progress.status_line() == (
            "[###########.........] 4/7 cells"
            " | 1 cached, 1 resumed, 1 retried, 1 timed out, 1 FAILED"
            " | 2 running: WL3/S-NUCA …"
            " | ETA 4s"
        )

    def test_status_document(self):
        state = MonitorState(7, workers=2, label="pin")
        for event in PIN_EVENTS:
            state.observe(event)
        status = state.snapshot()
        status.pop("elapsed_s")
        status["workers"].pop("last_event_age_s")
        assert status == {
            "v": 1,
            "label": "pin",
            "total": 7,
            "completed": 4,
            "counts": {"pending": 1, "running": 2, "done": 1, "cached": 1,
                       "resumed": 1, "failed": 1},
            "cells": [
                {"index": 0, "label": "WL1/S-NUCA", "state": "done",
                 "wall_time_s": 3.0},
                {"index": 1, "label": "WL1/Re-NUCA", "state": "cached",
                 "wall_time_s": 0.0},
                {"index": 2, "label": "WL2/S-NUCA", "state": "resumed",
                 "wall_time_s": 0.0},
                {"index": 3, "label": "WL2/Re-NUCA", "state": "failed",
                 "wall_time_s": 0.0},
                {"index": 4, "label": "WL3/S-NUCA", "state": "running",
                 "wall_time_s": 0.0},
                {"index": 5, "label": "WL3/Re-NUCA", "state": "running",
                 "wall_time_s": 0.0},
            ],
            "workers": {"configured": 2, "busy": 2},
            "counters": {"retries": 1, "timeouts": 1, "requeued": 1,
                         "pool_rebuilds": 0},
            "eta_s": 4.5,
            "finished": False,
        }


def _span(name, category, span_id, *, start, end, **attrs):
    return Span(trace_id="tpin", span_id=span_id, parent_id=None, name=name,
                category=category, start_s=start, end_s=end, pid=100,
                attrs=attrs)


def _write_spans(path, spans):
    with SpanWriter(path) as writer:
        writer.open()
        for span in spans:
            writer.record(span)


#: The span file of a 5-cell sweep, in the order a sweep appends it:
#: instants at event time, a job span when its cell closes, the root
#: span last.
PIN_SPANS = (
    _span("retry", "event", "e1", start=1.0, end=1.0,
          label="WL1/S-NUCA", index=0),
    _span("timeout", "event", "e2", start=1.5, end=1.5,
          label="WL1/S-NUCA", index=0),
    _span("requeue", "event", "e3", start=1.5, end=1.5,
          label="WL1/S-NUCA", index=0),
    _span("WL1/S-NUCA", "job", "j0", start=0.5, end=2.75,
          label="WL1/S-NUCA", index=0, status="ok"),
    _span("cache", "event", "e4", start=0.1, end=0.1,
          label="WL1/Re-NUCA", index=1),
    _span("resumed", "event", "e5", start=0.1, end=0.1,
          label="WL2/S-NUCA", index=2),
    _span("WL2/Re-NUCA", "job", "j3", start=1.0, end=2.5,
          label="WL2/Re-NUCA", index=3, status="failed"),
    _span("sweep", "sweep", "s0", start=0.0, end=3.0, total=5, label="pin"),
)


class TestOfflinePin:
    def test_status_from_spans(self, tmp_path):
        spans_path = tmp_path / "spans.jsonl"
        _write_spans(spans_path, PIN_SPANS)
        assert status_from_files(None, spans_path) == {
            "v": 1,
            "label": "pin",
            "total": 5,
            "completed": 4,
            "counts": {"pending": 1, "running": 0, "done": 1, "cached": 1,
                       "resumed": 1, "failed": 1},
            "cells": [
                {"index": 0, "label": "WL1/S-NUCA", "state": "done",
                 "wall_time_s": 2.25},
                {"index": 1, "label": "WL1/Re-NUCA", "state": "cached",
                 "wall_time_s": 0.0},
                {"index": 2, "label": "WL2/S-NUCA", "state": "resumed",
                 "wall_time_s": 0.0},
                {"index": 3, "label": "WL2/Re-NUCA", "state": "failed",
                 "wall_time_s": 1.5},
            ],
            "workers": {"configured": 0, "busy": 0, "last_event_age_s": 0.0},
            "counters": {"retries": 1, "timeouts": 1, "requeued": 1,
                         "pool_rebuilds": 0},
            "eta_s": None,
            "elapsed_s": 0.0,
            "finished": False,
        }
