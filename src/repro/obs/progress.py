"""The live model of a sweep and its one-line renderer.

The sweep scheduler (:func:`repro.jobs.scheduler.run_jobs`) emits
:class:`JobEvent` notifications through its ``observer`` hook as cells
are dispatched, served from the cache or journal, retried and
completed.  :class:`MonitorState` is the one fold of that stream: its
:meth:`~MonitorState.observe` interprets the event kinds, and its
:meth:`~MonitorState.snapshot` is the ``/status`` document
(:data:`STATUS_VERSION`) that every view reads — the monitor server
(:mod:`repro.obs.server`), ``repro top`` (:mod:`repro.obs.top`, which
replays span files and journals into a :class:`MonitorState` for
finished runs) and the progress line.

The ETA is a running mean: completed-execution wall times are averaged
and scaled by the remaining cell count over the worker count.  Cells
served from the cache or journal are free and never pollute the mean;
quarantined (failed) cells are resolved, never future work.

:class:`SweepProgress` is a :class:`MonitorState` that also renders a
single ``\\r``-rewritten status line::

    [#########...........]  5/12 cells | 2 cached, 1 resumed | 4 running: WL1/Re-NUCA … | ETA 18s

The first event draws it at once; later redraws are spaced by at least
``min_redraw_s`` from the previous one, except when the last cell
resolves.  It takes a snapshot only when it redraws, so a thousand-cell
sweep does not melt a slow console.  ``close()`` ends the line with a
newline and the elapsed time so the last state stays in the scrollback.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass

#: Observer event kinds emitted by the scheduler.  ``timeout`` marks a
#: watchdog kill, ``requeue`` an innocent job put back after a pool
#: rebuild, ``failed`` a quarantined cell (``keep_going`` sweeps).
EVENT_KINDS = (
    "dispatch", "done", "cache", "resumed", "retry",
    "timeout", "requeue", "failed",
)

#: ``/status`` document layout version.
STATUS_VERSION = 1

#: Cell states reported by ``/status``.
CELL_STATES = ("pending", "running", "done", "cached", "resumed", "failed")

#: The cell state each event kind moves its cell to.
_STATE_OF = {
    "dispatch": "running", "done": "done", "cache": "cached",
    "resumed": "resumed", "failed": "failed",
}

#: The counter each incident kind bumps (its cell keeps its state).
_COUNTER_OF = {"retry": "retries", "timeout": "timeouts", "requeue": "requeued"}


@dataclass(frozen=True)
class JobEvent:
    """One scheduler notification: what just happened to which cell."""

    kind: str
    #: Short human-readable cell label (``WL1/Re-NUCA``).
    label: str
    #: Job index in submission order.
    index: int
    #: Wall seconds the execution took (``done`` events; a ``failed``
    #: event replayed from a span file carries its span's duration).
    wall_time_s: float = 0.0


def tee_observers(*observers):
    """Compose observer hooks: every non-None one sees every event.

    Returns None when nothing is active, the sole hook when only one
    is, and a fan-out callable otherwise — so ``run_jobs`` can chain
    its span observer behind the caller's hook on the single
    ``observer`` slot.
    """
    active = [observer for observer in observers if observer is not None]
    if not active:
        return None
    if len(active) == 1:
        return active[0]

    def _fan_out(event) -> None:
        for observer in active:
            observer(event)

    return _fan_out


def format_duration(seconds: float | None) -> str:
    """``42s``, ``2m05s`` or ``2h00m``; ``--`` for an unknown duration."""
    if seconds is None:
        return "--"
    if seconds < 60:
        return f"{seconds:.0f}s"
    minutes, secs = divmod(int(round(seconds)), 60)
    if minutes < 60:
        return f"{minutes}m{secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"


class MonitorState:
    """Thread-safe live model of one sweep, fed by the observer hook.

    Pass :meth:`observe` as ``run_jobs(..., observer=...)``; call
    :meth:`snapshot` from any thread for the current ``/status``
    document.  Cells are keyed by job index: a later event for the same
    index moves the same cell.  Per-state counts and the duration sum
    are kept as the events arrive, so :attr:`completed` is O(1) and
    only :meth:`snapshot` walks the cells.
    """

    def __init__(
        self, total: int, *, workers: int = 1, label: str | None = None,
    ) -> None:
        self.total = total
        self.workers = max(1, workers)
        self.label = label
        self._lock = threading.RLock()
        self._cells: dict[int, dict] = {}
        #: Cells seen so far, per state (unseen cells are pending).
        self._counts = dict.fromkeys(CELL_STATES, 0)
        self._counters = {"retries": 0, "timeouts": 0, "requeued": 0}
        self._wall_sum = 0.0
        self._executed = 0
        self._started = time.monotonic()
        self._last_event = self._started
        self._finished = False

    # -- event folding -------------------------------------------------------

    def observe(self, event: JobEvent) -> None:
        """The scheduler's ``observer`` hook: fold one event."""
        with self._lock:
            self._last_event = time.monotonic()
            cell = self._cells.get(event.index)
            if cell is None:
                cell = self._cells[event.index] = {
                    "label": event.label, "state": "pending",
                    "wall_time_s": 0.0,
                }
                self._counts["pending"] += 1
            state = _STATE_OF.get(event.kind)
            if state is not None:
                self._counts[cell["state"]] -= 1
                self._counts[state] += 1
                cell["state"] = state
                if state in ("done", "failed"):
                    cell["wall_time_s"] = event.wall_time_s
                if state == "done":
                    self._wall_sum += event.wall_time_s
                    self._executed += 1
            elif event.kind in _COUNTER_OF:
                self._counters[_COUNTER_OF[event.kind]] += 1

    def finish(self) -> None:
        """Mark the sweep over (the CLI calls this after ``run_jobs``)."""
        with self._lock:
            self._finished = True

    # -- reading -------------------------------------------------------------

    @property
    def completed(self) -> int:
        """Cells resolved so far, by any tier (FAILED placeholders too)."""
        counts = self._counts
        return (
            counts["done"] + counts["cached"] + counts["resumed"]
            + counts["failed"]
        )

    @property
    def remaining(self) -> int:
        """Cells still to resolve (quarantined cells are resolved)."""
        return max(0, self.total - self.completed)

    def eta_seconds(self) -> float | None:
        """Running-mean ETA over the remaining cells (None before data)."""
        with self._lock:
            if self.remaining <= 0:
                return 0.0
            if not self._executed:
                return None
            mean = self._wall_sum / self._executed
            return self.remaining * mean / self.workers

    def snapshot(self) -> dict:
        """The current ``/status`` document (plain JSON-able data)."""
        with self._lock:
            now = time.monotonic()
            counts = dict(self._counts)
            counts["pending"] += max(0, self.total - len(self._cells))
            completed = self.completed
            return {
                "v": STATUS_VERSION,
                "label": self.label,
                "total": self.total,
                "completed": completed,
                "counts": counts,
                "cells": [
                    {"index": index, **self._cells[index]}
                    for index in sorted(self._cells)
                ],
                "workers": {
                    "configured": self.workers,
                    "busy": counts["running"],
                    "last_event_age_s": round(now - self._last_event, 3),
                },
                # Pool rebuilds are not in the event stream; the
                # monitor server fills them in from the sweep's registry.
                "counters": {**self._counters, "pool_rebuilds": 0},
                "eta_s": self.eta_seconds(),
                "elapsed_s": round(now - self._started, 3),
                "finished": self._finished or completed >= self.total,
            }


class SweepProgress(MonitorState):
    """A :class:`MonitorState` that renders itself as one live line.

    Use the instance itself as the ``observer`` hook: each event is
    folded by :meth:`MonitorState.observe`, then the line is redrawn
    if the throttle allows: the first event always draws, and a later
    one only ``min_redraw_s`` after the previous frame (or when the
    last cell resolves, and in :meth:`close`).
    """

    def __init__(
        self,
        total: int,
        *,
        workers: int = 1,
        label: str | None = None,
        stream=None,
        bar_width: int = 20,
        min_redraw_s: float = 0.1,
    ) -> None:
        super().__init__(total, workers=workers, label=label)
        self.stream = stream if stream is not None else sys.stderr
        self.bar_width = bar_width
        self.min_redraw_s = min_redraw_s
        #: Monitor-server port, shown as a ``serving :PORT`` suffix so a
        #: watcher knows where ``repro top`` can attach.
        self.serving: int | None = None
        #: Monotonic time of the previous frame; None until the first,
        #: since the clock's reference point is undefined (boot on Linux).
        self._last_draw: float | None = None
        self._last_width = 0

    def __call__(self, event: JobEvent) -> None:
        """The scheduler's ``observer`` hook: fold, then maybe redraw."""
        self.observe(event)
        self._draw(force=self.completed == self.total)

    def status_line(self) -> str:
        """The current one-line status (without the carriage return)."""
        status = self.snapshot()
        total, completed = status["total"], status["completed"]
        counts, counters = status["counts"], status["counters"]
        filled = (
            round(self.bar_width * completed / total)
            if total else self.bar_width
        )
        bar = "#" * filled + "." * (self.bar_width - filled)
        parts = [f"[{bar}] {completed}/{total} cells"]
        served = [
            f"{count} {noun}" for count, noun in (
                (counts["cached"], "cached"),
                (counts["resumed"], "resumed"),
                (counters["retries"], "retried"),
                (counters["timeouts"], "timed out"),
                (counts["failed"], "FAILED"),
            ) if count
        ]
        if served:
            parts.append(", ".join(served))
        labels = [
            cell["label"] for cell in status["cells"]
            if cell["state"] == "running"
        ]
        if labels:
            shown = labels[0] if len(labels) == 1 else f"{labels[0]} …"
            parts.append(f"{len(labels)} running: {shown}")
        eta = status["eta_s"]
        if eta is not None:
            parts.append("done" if eta == 0.0 else f"ETA {format_duration(eta)}")
        if self.serving is not None:
            parts.append(f"serving :{self.serving}")
        return " | ".join(parts)

    def _draw(self, *, force: bool = False) -> None:
        now = time.monotonic()
        if (not force and self._last_draw is not None
                and now - self._last_draw < self.min_redraw_s):
            return
        self._last_draw = now
        line = self.status_line()
        pad = max(0, self._last_width - len(line))
        self._last_width = len(line)
        self.stream.write("\r" + line + " " * pad)
        self.stream.flush()

    def close(self) -> None:
        """Finish the line: redraw the final state and append a newline."""
        self._draw(force=True)
        elapsed = time.monotonic() - self._started
        self.stream.write(f"\n({format_duration(elapsed)} elapsed)\n")
        self.stream.flush()
