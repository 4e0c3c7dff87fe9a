"""The live sweep monitor: a zero-dependency HTTP status/metrics server.

``repro sweep --serve [PORT]`` starts a :class:`MonitorServer` (plain
``http.server``, stdlib only) next to the running sweep.  It serves:

* ``GET /status`` — the sweep's
  :class:`~repro.obs.progress.MonitorState` snapshot
  (:data:`~repro.obs.progress.STATUS_VERSION`): per-cell states
  (pending / running / done / cached / resumed / failed), worker
  liveness, the running-mean ETA, retry/timeout/requeue counters and
  elapsed wall time, plus the pool-rebuild count read from the sweep's
  registry.  ``repro top`` renders this.
* ``GET /metrics`` — Prometheus text exposition rendered live from the
  sweep's :class:`~repro.telemetry.registry.StatsRegistry` (see
  :func:`render_prometheus` for the dotted-name mangling rules).
* ``GET /healthz`` — ``ok`` while the server thread is up.

This module holds only HTTP and Prometheus: the model lives in
:mod:`repro.obs.progress`, so offline views never import
``http.server``.  The server thread only ever *reads* the model under
its lock, so serving never perturbs the sweep.
"""

from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING

import numpy as np

from repro.common.errors import ReproError

if TYPE_CHECKING:
    from repro.obs.progress import MonitorState


def _registry_value(registry, name: str) -> float | None:
    """One instrument's current value, tolerating concurrent mutation."""
    for _ in range(3):
        try:
            if name not in registry:
                return None
            return registry.snapshot().get(name)
        except RuntimeError:
            # The simulation registered an instrument mid-iteration;
            # registries only ever grow, so retrying converges.
            continue
    return None


# -- Prometheus exposition ---------------------------------------------------

#: ``jobs.retry.<kind>`` collapses onto one labelled counter family.
_RETRY_FAMILY_RE = re.compile(r"^jobs\.retry\.(?P<kind>[a-z0-9_-]+)$")

#: ``<prefix>.bank<N>.<metric>`` collapses onto one per-bank family.
_BANK_FAMILY_RE = re.compile(
    r"^(?P<prefix>[a-z0-9_.-]+)\.bank(?P<bank>\d+)\.(?P<metric>[a-z0-9_.-]+)$"
)


def prometheus_name(name: str) -> str:
    """Mangle one dotted instrument name to a Prometheus metric name.

    Rules (documented in ``docs/OBSERVABILITY.md``): prefix ``repro_``,
    dots and dashes become underscores.  Family collapses
    (``jobs.retry.<kind>``, per-bank names) are handled by
    :func:`render_prometheus`, which strips the dynamic segment into a
    label before calling this.
    """
    return "repro_" + name.replace(".", "_").replace("-", "_")


def _families(state: dict) -> dict[str, dict]:
    """Group an ``export_state`` dump into Prometheus families."""
    families: dict[str, dict] = {}

    def family(metric: str, kind: str) -> dict:
        return families.setdefault(metric, {"type": kind, "samples": []})

    for name in sorted(state):
        kind, value = state[name]
        retry = _RETRY_FAMILY_RE.match(name)
        bank = _BANK_FAMILY_RE.match(name)
        if retry is not None:
            metric = prometheus_name("jobs.retry") + "_total"
            family(metric, "counter")["samples"].append(
                ({"kind": retry.group("kind")}, float(value))
            )
            continue
        if bank is not None and kind in ("counter", "gauge"):
            metric = prometheus_name(
                f"{bank.group('prefix')}.{bank.group('metric')}"
            )
            if kind == "counter":
                metric += "_total"
            family(metric, kind)["samples"].append(
                ({"bank": bank.group("bank")}, float(value))
            )
            continue
        if kind == "counter":
            metric = prometheus_name(name)
            if not metric.endswith("_total"):
                metric += "_total"
            family(metric, "counter")["samples"].append(({}, float(value)))
        elif kind == "gauge":
            family(prometheus_name(name), "gauge")["samples"].append(
                ({}, float(value))
            )
        elif kind == "histogram":
            metric = prometheus_name(name)
            entry = family(metric, "summary")
            count = int(value["count"])
            mean = float(value["mean"]) if count else 0.0
            recent = value.get("recent") or []
            if recent:
                levels = np.percentile(
                    np.asarray(recent, dtype=np.float64), (50, 90, 99)
                )
                for quantile, level in zip((0.5, 0.9, 0.99), levels):
                    entry["samples"].append(
                        ({"quantile": f"{quantile}"}, float(level))
                    )
            entry["sum"] = mean * count
            entry["count"] = count
            #: Sliding-window size behind the quantiles (see
            #: ``StatsRegistry.snapshot``'s ``.window`` key).
            entry["window"] = len(recent)
    return families


def _format_value(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _format_labels(labels: dict) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{labels[key]}"' for key in sorted(labels)
    )
    return "{" + inner + "}"


def render_prometheus(registry) -> str:
    """Prometheus text exposition (v0.0.4) of one stats registry.

    Counters become ``repro_<dotted_name>_total``; gauges keep their
    mangled name; histograms render as summaries (``quantile`` labels
    over the bounded sample window, exact ``_sum``/``_count`` from the
    Welford moments, plus a ``_window`` gauge stating how many samples
    back the quantiles).  ``jobs.retry.<kind>`` and per-bank names
    collapse into labelled families.
    """
    state = None
    for _ in range(3):
        try:
            state = registry.export_state()
            break
        except RuntimeError:
            continue
    if state is None:
        raise ReproError("registry busy: could not snapshot instruments")
    lines: list[str] = []
    for metric, entry in sorted(_families(state).items()):
        lines.append(f"# TYPE {metric} {entry['type']}")
        for labels, value in entry["samples"]:
            lines.append(
                f"{metric}{_format_labels(labels)} {_format_value(value)}"
            )
        if entry["type"] == "summary":
            lines.append(f"{metric}_sum {_format_value(entry['sum'])}")
            lines.append(f"{metric}_count {entry['count']}")
            lines.append(f"# TYPE {metric}_window gauge")
            lines.append(f"{metric}_window {entry['window']}")
    return "\n".join(lines) + "\n"


# -- the server --------------------------------------------------------------


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-monitor"

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        monitor: "MonitorServer" = self.server.monitor  # type: ignore[attr-defined]
        path = self.path.split("?", 1)[0]
        if path == "/status":
            body = json.dumps(monitor.status()).encode()
            self._reply(200, "application/json", body)
        elif path == "/metrics":
            if monitor.registry is None:
                self._reply(404, "text/plain",
                            b"no registry attached to this sweep\n")
                return
            try:
                body = render_prometheus(monitor.registry).encode()
            except ReproError as exc:
                self._reply(503, "text/plain", f"{exc}\n".encode())
                return
            self._reply(200, "text/plain; version=0.0.4", body)
        elif path in ("/", "/healthz"):
            self._reply(200, "text/plain", b"ok\n")
        else:
            self._reply(404, "text/plain", b"not found\n")

    def _reply(self, code: int, content_type: str, body: bytes) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *_args) -> None:
        """Silence per-request stderr noise (the sweep owns stderr)."""


class MonitorServer:
    """A daemon-thread HTTP server over one :class:`MonitorState`.

    ``port=0`` (the default) binds an ephemeral port; :meth:`start`
    returns the bound port and :attr:`url` points at it.  The server
    is loopback-only by design — it reports, it does not control.
    """

    def __init__(
        self,
        state: MonitorState,
        *,
        registry=None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.state = state
        self.registry = registry
        self.host = host
        self.requested_port = port
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    def status(self) -> dict:
        """The ``/status`` document: the state's snapshot, with the pool
        rebuilds the event stream does not carry read from the registry."""
        status = self.state.snapshot()
        if self.registry is not None:
            value = _registry_value(self.registry, "jobs.recovery.pool_rebuilds")
            if value is not None:
                status["counters"]["pool_rebuilds"] = int(value)
        return status

    @property
    def port(self) -> int:
        if self._httpd is None:
            return self.requested_port
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> int:
        """Bind and serve on a daemon thread; returns the bound port."""
        if self._httpd is not None:
            return self.port
        try:
            self._httpd = ThreadingHTTPServer(
                (self.host, self.requested_port), _Handler
            )
        except OSError as exc:
            raise ReproError(
                f"cannot bind monitor on {self.host}:{self.requested_port}: "
                f"{exc}"
            ) from exc
        self._httpd.daemon_threads = True
        self._httpd.monitor = self  # type: ignore[attr-defined]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-monitor",
            daemon=True,
        )
        self._thread.start()
        return self.port

    def stop(self) -> None:
        """Shut the server down and join its thread."""
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
        self._httpd = None
        self._thread = None

    def __enter__(self) -> "MonitorServer":
        self.start()
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()
