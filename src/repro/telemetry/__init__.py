"""Telemetry: counters/gauges/histograms, event tracing and interval
dumps for the NUCA simulation pipeline.

One :class:`Telemetry` handle bundles the three facilities (plus an
optional span recorder, the phase timer) and is
threaded through :func:`~repro.sim.runner.run_workload`; every
instrumented component (:class:`~repro.nuca.llc.NucaLLC`, the mapping
policies, the criticality predictor, the enhanced TLB, the wear tracker,
the fault injector, the mesh) takes the handle as an optional argument
and does **nothing** when it is absent — the un-instrumented hot path is
byte-for-byte the pre-telemetry code plus one ``is None`` test per
guarded block (see ``benchmarks/test_bench_telemetry_overhead.py`` for
the enforced bound, and ``docs/OBSERVABILITY.md`` for the full contract).

Quick start::

    from repro import System, Telemetry

    from repro.obs.spans import phase_wall_table

    tel = Telemetry(trace=True, interval_instructions=5_000, spans=True)
    result = System(seed=1).run(0, "Re-NUCA", telemetry=tel)
    print(tel.registry.render())            # counter/gauge summary
    print(result.intervals.bank_write_matrix())   # wear time series
    tel.trace.export_jsonl("events.jsonl")  # structured event log
    print(phase_wall_table(tel.spans.spans))  # where the wall time went
"""

from __future__ import annotations

from repro.telemetry.events import (
    KNOWN_KINDS,
    EventTrace,
    TraceEvent,
    load_events,
)
from repro.telemetry.intervals import IntervalSeries
from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    StatsRegistry,
    TelemetryError,
)

__all__ = [
    "KNOWN_KINDS",
    "EventTrace",
    "TraceEvent",
    "load_events",
    "IntervalSeries",
    "Counter",
    "Gauge",
    "Histogram",
    "StatsRegistry",
    "TelemetryError",
    "Telemetry",
]

#: Default ring-buffer capacity of the event trace.
DEFAULT_TRACE_CAPACITY = 65536


class Telemetry:
    """One run's observability bundle.

    Args:
        trace: enable structured event tracing (off by default — events
            on the hot path are the costliest instrument).
        trace_capacity: ring-buffer retention when tracing is enabled.
        interval_instructions: snapshot the registry every N committed
            instructions (0 disables interval dumps).
        spans: enable span tracing, the phase timer (``True`` for a
            fresh :class:`~repro.obs.spans.SpanRecorder`, or pass a
            recorder to share a sweep-wide trace id and sink).

    The registry is always live — counters and gauges are cheap and the
    summary they feed is the point of asking for telemetry at all.
    """

    def __init__(
        self,
        *,
        trace: bool = False,
        trace_capacity: int = DEFAULT_TRACE_CAPACITY,
        interval_instructions: int = 0,
        spans=False,
    ) -> None:
        if interval_instructions < 0:
            raise TelemetryError("interval_instructions must be >= 0")
        self.registry = StatsRegistry()
        self.trace: EventTrace | None = (
            EventTrace(trace_capacity) if trace else None
        )
        self.interval_instructions = interval_instructions
        if spans is False or spans is None:
            self.spans = None
        elif spans is True:
            # Local import: repro.obs.spans has no telemetry imports,
            # but keeping it lazy spares every un-instrumented run the
            # module load.
            from repro.obs.spans import SpanRecorder

            self.spans = SpanRecorder()
        else:
            self.spans = spans

    @property
    def instruments_cells(self) -> bool:
        """True when runs need this handle inside the simulation.

        Event tracing and interval dumps hook into the run itself (and
        so keep it on the reference replay); a registry-only handle is
        engine accounting, which the sweep engine collects without
        instrumenting its cells.  Spans bracket phases outside the
        measured loop and do not count.
        """
        return self.trace is not None or self.interval_instructions > 0

    def counter(self, name: str) -> Counter:
        """Shorthand for ``telemetry.registry.counter(name)``."""
        return self.registry.counter(name)

    def summary(self) -> str:
        """Registry dump plus a trace one-liner."""
        lines = [self.registry.render()]
        if self.trace is not None:
            lines.append(
                f"trace: {len(self.trace)} events retained "
                f"({self.trace.emitted} emitted, {self.trace.dropped} dropped)"
            )
        return "\n".join(lines)
