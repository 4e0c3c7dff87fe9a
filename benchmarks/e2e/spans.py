"""Span recording and per-layer self-time arithmetic.

A span is one call into a layer's public entry point: the layer name,
the wrapped operation, start and end times, the parent span (the call
that was open when it started), the sweep cell it ran for, and the work
the call did (bundles, instructions, lines, records, store hits).

A span's *self time* is its duration minus the part of that interval
its child spans cover; a layer's busy time is the sum of the self times
of its spans.  Spans of one layer may nest (calibration probes are
stage-1 runs inside a calibration call): each level subtracts its
children, so the layer's total counts every instant once.  In a serial
process the layers' busy times therefore add up to the root spans'
durations.

This module imports nothing from the simulator, so the harness can
analyse span files without importing ``repro``.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

#: Layers in call order, outermost first.
LAYERS = (
    "import", "cli", "jobs", "result_cache", "reduce", "prepare",
    "stage1_store", "calibrate", "stage1", "trace", "warmup", "replay", "exit",
)


@dataclass
class Span:
    """One call into a layer (times in seconds of one process clock)."""

    id: int
    parent: int | None
    name: str
    op: str
    start: float
    end: float = 0.0
    cell: str | None = None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans in memory; nesting follows the call stack.

    Single-threaded by design: the benchmark drives the CLI with one
    worker, so every span opens and closes on the main thread.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.cell: str | None = None
        self._stack: list[Span] = []

    def open(self, name: str, op: str) -> Span:
        span = Span(
            id=len(self.spans),
            parent=self._stack[-1].id if self._stack else None,
            name=name,
            op=op,
            start=self.clock(),
            cell=self.cell,
        )
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        if not self._stack or self._stack[-1] is not span:
            raise RuntimeError(f"span {span.name}/{span.op} closed out of order")
        self._stack.pop()

    def inside(self, name: str) -> bool:
        """True while a span of layer ``name`` is open."""
        return any(span.name == name for span in self._stack)

    def write_jsonl(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def load_jsonl(path: str | Path) -> list[Span]:
    with open(path, encoding="utf-8") as fh:
        return [Span(**json.loads(line)) for line in fh if line.strip()]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    own = {}
    for span in spans:
        covered, cursor = 0.0, span.start
        for lo, hi in sorted(children.get(span.id, ())):
            lo, hi = max(lo, cursor), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        own[span.id] = span.duration - covered
    return own


def busy_seconds(spans: list[Span]) -> dict[str, float]:
    """Self time summed per layer."""
    own = self_times(spans)
    busy = dict.fromkeys(LAYERS, 0.0)
    for span in spans:
        busy[span.name] = busy.get(span.name, 0.0) + own[span.id]
    return busy


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """The per-layer metrics of one traced CLI run.

    ``trace_overhead_pct`` is not here: it compares traced against
    untraced wall times, which only the harness sees.
    """
    busy = busy_seconds(spans)

    def total(layer: str, key: str) -> float:
        return float(sum(s.counts.get(key, 0) for s in spans if s.name == layer))

    def calls(layer: str, op: str | None = None) -> float:
        return float(sum(
            1 for s in spans if s.name == layer and (op is None or s.op == op)
        ))

    def per(seconds: float, count: float, scale: float = 1e9) -> float:
        return seconds / count * scale if count else 0.0

    lookups = total("stage1_store", "lookups")
    lines = total("warmup", "lines")
    records = total("replay", "records")
    cells = [s.duration for s in spans if s.name == "reduce"]
    return {
        "import.s": busy["import"],
        "cli.s": busy["cli"],
        "jobs.s": busy["jobs"],
        "result_cache.s": busy["result_cache"],
        "reduce.s": busy["reduce"],
        "cell.p50_s": statistics.median(cells) if cells else 0.0,
        "prepare.s": busy["prepare"],
        "stage1_store.s": busy["stage1_store"],
        "stage1_store.hit_ratio": per(total("stage1_store", "hits"), lookups, 1.0),
        "stage1_store.writes": total("stage1_store", "writes"),
        "calibrate.s": busy["calibrate"],
        "calibrate.calls": calls("calibrate", "calibrated_base_cpi"),
        "stage1.s": busy["stage1"],
        "stage1.minstr": total("stage1", "instructions") / 1e6,
        "stage1.calls": calls("stage1"),
        "trace.s": busy["trace"],
        "trace.bundles": total("trace", "bundles"),
        "warmup.s": busy["warmup"],
        "warmup.lines": lines,
        "warmup.ns_per_line": per(busy["warmup"], lines),
        "replay.s": busy["replay"],
        "replay.records": records,
        "replay.ns_per_record": per(busy["replay"], records),
        "replay.kernel_share": per(total("replay", "kernel_records"), records, 1.0),
        "exit.s": busy["exit"],
    }
