"""Run provenance, regression gating, HTML reporting and live progress.

``repro.obs`` is the layer that remembers what the simulator did and
notices when it changes:

* :mod:`repro.obs.ledger` — the append-only :class:`RunLedger` of
  per-run provenance records (what ran, under which inputs, what it
  measured, how long it took);
* :mod:`repro.obs.diff` — per-metric tolerance rules and the
  ``repro diff`` regression gate built on them;
* :mod:`repro.obs.html_report` — the self-contained single-file HTML
  report behind ``repro report --html``;
* :mod:`repro.obs.progress` — the live model of a sweep
  (:class:`MonitorState`, the one fold of the scheduler's job events
  behind ``/status`` and ``repro top``) and the single-line progress
  renderer behind ``repro sweep --progress``;
* :mod:`repro.obs.bench` — machine-readable ``BENCH_*.json`` timing/IPC
  trajectories (``repro bench-record``);
* :mod:`repro.obs.spans` — cross-process span tracing (``spans.jsonl``)
  for sweeps and ``run_workload`` phases;
* :mod:`repro.obs.server` — the zero-dependency HTTP monitor behind
  ``repro sweep --serve`` (``/status`` JSON, ``/metrics`` Prometheus);
  HTTP and Prometheus only;
* :mod:`repro.obs.chrome_trace` — the Chrome ``trace_event`` /
  Perfetto exporter behind ``repro trace export``;
* :mod:`repro.obs.top` — the ``repro top`` terminal dashboard, live
  over ``/status`` or offline by replaying span files and journals;
* :mod:`repro.obs.history` — the cross-run :class:`RunIndex` joining
  ledgers, bench trajectories and search outcomes by provenance
  (``repro history``);
* :mod:`repro.obs.trajectory` — per-scheme metric trajectories over
  commits and the sliding-window drift gate (``repro history check``).

See ``docs/OBSERVABILITY.md`` for the schemas and the CLI surface.
"""

from __future__ import annotations

import importlib

#: Public name -> defining submodule.  Exports resolve lazily (PEP 562):
#: importing ``repro.obs.spans`` from the simulator must not pull in the
#: HTTP server, the HTML report or the history layer.
_EXPORTS = {
    name: module
    for module, names in {
        "bench": ("append_bench_point", "load_bench", "load_bench_trajectory",
                  "validate_bench_point"),
        "chrome_trace": ("chrome_trace", "export_chrome_trace",
                         "validate_chrome_trace"),
        "diff": ("DEFAULT_RULES", "DiffFinding", "ToleranceRule",
                 "diff_metric_maps", "load_comparable", "load_rules",
                 "render_findings"),
        "history": ("IndexedSearch", "RunIndex"),
        "html_report": ("render_history_report", "render_html_report"),
        "ledger": ("LEDGER_FORMAT_VERSION", "RunLedger", "RunRecord",
                   "current_git_sha", "new_run_id"),
        "progress": ("MonitorState", "STATUS_VERSION", "SweepProgress",
                     "format_duration", "tee_observers"),
        "server": ("MonitorServer", "render_prometheus"),
        "spans": ("DISABLED_SPANS", "SPAN_SCHEMA_VERSION", "Span",
                  "SpanRecorder", "SpanWriter", "canonical_span_set",
                  "load_spans", "phase_wall_table"),
        "top": ("render_dashboard", "run_top", "status_from_files"),
        "trajectory": ("TrajectoryFinding", "TrajectoryPoint",
                       "gate_trajectories", "metric_trajectories",
                       "render_trajectory_findings"),
    }.items()
    for name in names
}


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))


__all__ = sorted(_EXPORTS)
