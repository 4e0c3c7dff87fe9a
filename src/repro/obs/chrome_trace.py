"""Chrome ``trace_event`` / Perfetto JSON export of a sweep's spans.

``repro trace export OUT.json --spans spans.jsonl`` converts the span
file written by a sweep (see :mod:`repro.obs.spans`) into the JSON
object format understood by https://ui.perfetto.dev and
``chrome://tracing``:

* every durable span becomes one complete (``"ph": "X"``) event;
* every instant ``event`` span (retry, watchdog timeout, requeue,
  crash, quarantine) becomes a thread-scoped instant (``"ph": "i"``)
  marker on the same track;
* spans are laid out on **per-worker tracks**: the recording process's
  pid keys the track, and metadata (``"ph": "M"``) events name the
  parent process ``sweep`` and each worker ``worker <pid>``.

Timestamps are microseconds relative to the earliest span, so the
trace always starts at zero.  :func:`validate_chrome_trace` is a
minimal structural validator (no third-party JSON-schema dependency)
used by the tests and the CI monitor-smoke job.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.common.errors import ReproError
from repro.common.store import atomic_write_text
from repro.obs.spans import Span, load_spans

#: ``otherData`` stamp in the exported trace.
TRACE_EXPORT_VERSION = 1

#: The minimal structural schema the exported trace must satisfy —
#: JSON-Schema-shaped for documentation, enforced by
#: :func:`validate_chrome_trace` without third-party dependencies.
CHROME_TRACE_SCHEMA = {
    "type": "object",
    "required": ["traceEvents"],
    "properties": {
        "traceEvents": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["ph", "pid", "tid", "ts", "name"],
                "properties": {
                    "ph": {"enum": ["X", "i", "M"]},
                    "pid": {"type": "integer"},
                    "tid": {"type": "integer"},
                    "ts": {"type": "number", "minimum": 0},
                    "dur": {"type": "number", "minimum": 0},
                    "name": {"type": "string"},
                    "cat": {"type": "string"},
                    "args": {"type": "object"},
                },
            },
        },
        "displayTimeUnit": {"enum": ["ms", "ns"]},
    },
}


def chrome_trace(spans: list[Span]) -> dict:
    """Render a span list as one Chrome ``trace_event`` JSON object."""
    events: list[dict] = []
    if spans:
        base_s = min(span.start_s for span in spans)
    else:
        base_s = 0.0

    # The parent process is whichever pid recorded the sweep root (or,
    # lacking one, the first span); every other pid is a worker track.
    parent_pid = None
    for span in spans:
        if span.category == "sweep":
            parent_pid = span.pid
            break
    if parent_pid is None and spans:
        parent_pid = spans[0].pid

    pids: list[int] = []
    for span in spans:
        if span.pid not in pids:
            pids.append(span.pid)
    for pid in pids:
        name = "sweep" if pid == parent_pid else f"worker {pid}"
        events.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": pid,
            "ts": 0, "args": {"name": name},
        })
        events.append({
            "ph": "M", "name": "thread_name", "pid": pid, "tid": pid,
            "ts": 0, "args": {"name": name},
        })

    for span in spans:
        ts_us = max(0.0, (span.start_s - base_s) * 1e6)
        args = {
            "trace_id": span.trace_id,
            "span_id": span.span_id,
            **({"parent_id": span.parent_id} if span.parent_id else {}),
            **span.attrs,
        }
        if span.category == "event":
            events.append({
                "ph": "i", "s": "t",
                "name": span.name, "cat": span.category,
                "pid": span.pid, "tid": span.pid,
                "ts": ts_us, "args": args,
            })
        else:
            events.append({
                "ph": "X",
                "name": span.name, "cat": span.category,
                "pid": span.pid, "tid": span.pid,
                "ts": ts_us,
                "dur": max(0.0, span.duration_s * 1e6),
                "args": args,
            })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "exporter": "repro trace export",
            "v": TRACE_EXPORT_VERSION,
            "spans": len(spans),
        },
    }


def span_event_count(trace: dict) -> int:
    """Span-backed events in a trace (``X`` + ``i``; metadata excluded)."""
    return sum(
        1 for event in trace.get("traceEvents", ())
        if event.get("ph") in ("X", "i")
    )


def validate_chrome_trace(trace: object) -> None:
    """Structurally validate an exported trace object.

    Enforces :data:`CHROME_TRACE_SCHEMA` — the checks CI's
    monitor-smoke job relies on — raising
    :class:`~repro.common.errors.ReproError` on the first violation.
    """
    if not isinstance(trace, dict):
        raise ReproError("chrome trace must be a JSON object")
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        raise ReproError("chrome trace is missing the traceEvents array")
    for number, event in enumerate(events):
        where = f"traceEvents[{number}]"
        if not isinstance(event, dict):
            raise ReproError(f"{where}: not an object")
        phase = event.get("ph")
        if phase not in ("X", "i", "M"):
            raise ReproError(f"{where}: bad phase {phase!r}")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                raise ReproError(f"{where}: {key} must be an integer")
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            raise ReproError(f"{where}: ts must be a non-negative number")
        if not isinstance(event.get("name"), str):
            raise ReproError(f"{where}: name must be a string")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ReproError(
                    f"{where}: complete events need a non-negative dur"
                )
        if "args" in event and not isinstance(event["args"], dict):
            raise ReproError(f"{where}: args must be an object")
    unit = trace.get("displayTimeUnit")
    if unit is not None and unit not in ("ms", "ns"):
        raise ReproError(f"bad displayTimeUnit {unit!r}")


def export_chrome_trace(
    spans_path: str | Path, out_path: str | Path
) -> int:
    """Convert ``spans.jsonl`` to a Chrome trace file; returns the
    number of span-backed events written (== the span record count)."""
    spans = load_spans(spans_path)
    trace = chrome_trace(spans)
    validate_chrome_trace(trace)
    atomic_write_text(Path(out_path), json.dumps(trace))
    return span_event_count(trace)
