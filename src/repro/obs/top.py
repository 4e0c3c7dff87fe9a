"""``repro top`` — a curses-free terminal dashboard for running sweeps.

Polls a :mod:`monitor server <repro.obs.server>`'s ``GET /status``
endpoint (``repro top --url http://127.0.0.1:PORT``) — or, for a
finished or crashed run with no server, reconstructs an equivalent
status document from the sweep journal and span file on disk
(``repro top --journal sweep.jsonl --spans spans.jsonl``) — and
repaints a full-screen ANSI dashboard:

* headline counters (done / cached / resumed / failed, retries,
  timeouts, pool rebuilds, ETA, elapsed);
* the **cell grid**: one character per cell in submission order
  (``.`` pending, ``r`` running, ``#`` done, ``c`` cached, ``j``
  resumed, ``F`` failed);
* **worker lanes**: the cells currently executing, with how long the
  monitor has gone without an event (a liveness hint: a stuck sweep
  shows old running cells and a growing silence).

Repainting uses plain ANSI (cursor home + clear-to-end), no curses, so
it works over ssh, in CI logs (with ``--once``) and under pytest.
"""

from __future__ import annotations

import json
import sys
import time
import urllib.error
import urllib.request
from collections import Counter
from itertools import count
from pathlib import Path

from repro.common.errors import ReproError
from repro.obs.progress import (
    EVENT_KINDS,
    STATUS_VERSION,
    JobEvent,
    MonitorState,
    format_duration,
)

#: One character per cell state in the grid.
STATE_GLYPHS = {
    "pending": ".",
    "running": "r",
    "done": "#",
    "cached": "c",
    "resumed": "j",
    "failed": "F",
}

#: ANSI repaint prefix: cursor home, then clear to end of screen.
ANSI_REPAINT = "\x1b[H\x1b[J"


def fetch_status(url: str, *, timeout_s: float = 5.0) -> dict:
    """One ``GET /status`` poll; raises ``ReproError`` on any failure."""
    if not url.endswith("/status"):
        url = url.rstrip("/") + "/status"
    try:
        with urllib.request.urlopen(url, timeout=timeout_s) as response:
            payload = response.read()
    except (urllib.error.URLError, OSError, ValueError) as exc:
        raise ReproError(f"cannot reach monitor at {url}: {exc}") from exc
    try:
        status = json.loads(payload)
    except json.JSONDecodeError as exc:
        raise ReproError(f"monitor at {url} returned bad JSON: {exc}") from exc
    if not isinstance(status, dict) or status.get("v") != STATUS_VERSION:
        raise ReproError(
            f"monitor at {url} speaks status version "
            f"{status.get('v') if isinstance(status, dict) else '?'} "
            f"(expected {STATUS_VERSION})"
        )
    return status


def status_from_files(
    journal_path: str | Path | None = None,
    spans_path: str | Path | None = None,
    *,
    total: int | None = None,
) -> dict:
    """Reconstruct a ``/status`` document from on-disk state.

    Replays the span file (job spans as ``done``/``failed`` events with
    their durations, instants as their own event kinds), then the
    journal (each completed record as a ``done`` event labelled
    ``workload/scheme``), into one :class:`MonitorState`.  Cells the
    span file resolved win: a journal record whose label they already
    cover is skipped, so nothing counts twice.  The cell count is
    ``total``, else the root span's ``total`` attribute, else the
    number of cells seen.  Fields an offline view cannot know are
    fixed: ``elapsed_s``, ``workers.last_event_age_s`` and
    ``workers.configured`` read 0, and ``eta_s`` is 0 once every cell
    resolved, else unknown (None).  Works on live files — both readers
    tolerate a torn final line — though a running sweep is better
    watched through its ``--serve`` endpoint.
    """
    events: list[JobEvent] = []
    label = None
    if spans_path is not None:
        from repro.obs.spans import load_spans

        for span in load_spans(spans_path):
            if span.category == "sweep":
                if total is None:
                    total = int(span.attrs.get("total", 0)) or None
                label = span.attrs.get("label", label)
            elif "index" not in span.attrs:
                continue
            elif span.category == "job":
                failed = span.attrs.get("status") == "failed"
                events.append(JobEvent(
                    "failed" if failed else "done",
                    span.attrs.get("label", span.name),
                    int(span.attrs["index"]), wall_time_s=span.duration_s,
                ))
            elif span.category == "event" and span.name in EVENT_KINDS:
                events.append(JobEvent(
                    span.name, span.attrs.get("label", ""),
                    int(span.attrs["index"]),
                ))
    state = MonitorState(total or 0, label=label)
    for event in events:
        state.observe(event)
    if journal_path is not None:
        from repro.jobs.journal import SweepJournal

        cells = state.snapshot()["cells"]
        # Span labels of fault cells carry an ``@age`` suffix.
        covered = Counter(
            cell["label"].split("@", 1)[0] for cell in cells
            if cell["state"] in ("done", "cached", "resumed")
        )
        used = {cell["index"] for cell in cells}
        free = (index for index in count() if index not in used)
        for result in SweepJournal(journal_path).load().values():
            name = f"{result.workload}/{result.scheme}"
            if covered[name]:
                covered[name] -= 1
            else:
                state.observe(JobEvent("done", name, next(free)))
    if total is None:
        state.total = len(state.snapshot()["cells"])
    status = state.snapshot()
    status["workers"].update(configured=0, last_event_age_s=0.0)
    status["elapsed_s"] = 0.0
    status["eta_s"] = 0.0 if status["completed"] >= state.total else None
    return status


def render_dashboard(status: dict, *, width: int = 72) -> str:
    """Render one ``/status`` document as a plain-text dashboard."""
    counts = status["counts"]
    counters = status["counters"]
    total = status["total"]
    lines = []
    title = "repro top"
    if status.get("label"):
        title += f" — {status['label']}"
    lines.append(title)
    lines.append("=" * min(width, max(len(title), 20)))
    lines.append(
        f"cells {status['completed']}/{total}"
        f" | done {counts['done']} | cached {counts['cached']}"
        f" | resumed {counts['resumed']} | FAILED {counts['failed']}"
    )
    lines.append(
        f"retries {counters['retries']} | timeouts {counters['timeouts']}"
        f" | requeued {counters['requeued']}"
        f" | pool rebuilds {counters['pool_rebuilds']}"
    )
    workers, eta = status["workers"], status["eta_s"]
    lines.append(
        f"workers {workers['busy']}/{workers['configured']} busy"
        f" | last event {workers['last_event_age_s']:.1f}s ago"
        f" | elapsed {status['elapsed_s']:.0f}s"
        f" | ETA {'done' if eta == 0 else format_duration(eta)}"
        + (" | FINISHED" if status.get("finished") else "")
    )

    # The cell grid: one glyph per cell in submission order.
    glyphs = ["."] * total
    by_index = {cell["index"]: cell for cell in status["cells"]}
    for index, cell in by_index.items():
        if 0 <= index < total:
            glyphs[index] = STATE_GLYPHS.get(cell["state"], "?")
    lines.append("")
    lines.append("cells (. pending  r running  # done  c cached  "
                 "j resumed  F FAILED):")
    for row_start in range(0, total, width):
        lines.append("  " + "".join(glyphs[row_start:row_start + width]))

    # Worker lanes: what is executing right now.
    running = [cell for cell in status["cells"]
               if cell["state"] == "running"]
    lines.append("")
    if running:
        lines.append("running:")
        for cell in running:
            lines.append(f"  [{cell['index']:>3}] {cell['label']}")
    else:
        lines.append("running: (nothing in flight)")
    failed = [cell for cell in status["cells"] if cell["state"] == "failed"]
    if failed:
        lines.append("FAILED:")
        for cell in failed:
            lines.append(f"  [{cell['index']:>3}] {cell['label']}")
    return "\n".join(lines)


def run_top(
    *,
    url: str | None = None,
    journal: str | Path | None = None,
    spans: str | Path | None = None,
    total: int | None = None,
    interval_s: float = 1.0,
    once: bool = False,
    stream=None,
    max_polls: int | None = None,
) -> int:
    """The ``repro top`` loop; returns the process exit code.

    Live mode (``url``) polls ``/status`` every ``interval_s`` and
    repaints until the sweep reports ``finished`` (or the server goes
    away, which is how a completed CLI sweep ends the session).
    Offline mode (``journal``/``spans``) renders once.  ``once`` forces
    a single frame without ANSI repaint codes — what tests and CI use.
    """
    if url is None and journal is None and spans is None:
        raise ReproError("repro top needs --url, --journal or --spans")
    stream = stream if stream is not None else sys.stdout
    polls = 0
    while True:
        if url is not None:
            try:
                status = fetch_status(url)
            except ReproError:
                if polls == 0:
                    raise
                # The server vanished mid-session: the sweep finished
                # and took its monitor with it.
                stream.write("\nmonitor gone — sweep finished or aborted\n")
                return 0
        else:
            status = status_from_files(journal, spans, total=total)
        frame = render_dashboard(status)
        if once or url is None:
            stream.write(frame + "\n")
            return 0
        stream.write(ANSI_REPAINT + frame + "\n")
        stream.flush()
        polls += 1
        if status.get("finished"):
            return 0
        if max_polls is not None and polls >= max_polls:
            return 0
        try:
            time.sleep(interval_s)
        except KeyboardInterrupt:
            stream.write("\n")
            return 0
