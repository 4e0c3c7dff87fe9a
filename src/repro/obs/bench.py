"""Machine-readable benchmark trajectories (``repro bench-record``).

A trajectory file (``BENCH_sweep.json`` by convention) is the repo's
performance memory: one JSON document holding an append-only list of
**points**, each stamping the commit, the timestamp, a label and the
headline numbers of one recorded run — per-scheme mean IPC and raw
minimum lifetime out of a result matrix, plus total simulation wall
time when a run ledger is supplied.  Plotting the list over commits
shows whether the simulator is getting faster or slower and whether the
paper's comparative claims are drifting.

The file is rewritten atomically on every append
(:func:`repro.common.store.atomic_write_text`), so a crashed recorder
never leaves a torn trajectory behind.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.common.errors import ReproError
from repro.common.store import atomic_write_text
from repro.obs.ledger import current_git_sha
from repro.sim.metrics import MatrixResult

#: Trajectory file layout version.
BENCH_FORMAT_VERSION = 1


def load_bench_trajectory(path: str | Path) -> list[dict]:
    """The recorded points of one trajectory file (empty when missing).

    Raises:
        ReproError: for an unreadable or malformed file — a damaged
            trajectory must not be silently restarted from empty.
    """
    path = Path(path)
    if not path.exists():
        return []
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ReproError(f"cannot read trajectory {path}: {exc}") from exc
    if (
        not isinstance(payload, dict)
        or payload.get("format_version") != BENCH_FORMAT_VERSION
        or not isinstance(payload.get("points"), list)
    ):
        raise ReproError(
            f"{path}: unsupported trajectory layout "
            f"(expected format_version {BENCH_FORMAT_VERSION})"
        )
    return payload["points"]


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate_bench_point(point) -> str | None:
    """Why ``point`` is unusable, or ``None`` when it validates.

    Every flavour shares the provenance envelope (numeric ``timestamp``,
    ``git_sha`` that is a string or ``None`` for runs outside a git
    checkout); the flavour-specific payload is checked on top: matrix
    points need per-scheme numeric ``mean_ipc``/``raw_min_lifetime``,
    search points need ``frontier_size``/``hypervolume``, throughput
    points need ``count`` and positive ``seconds``.
    """
    if not isinstance(point, dict):
        return "point is not an object"
    if not _is_number(point.get("timestamp")):
        return "missing or non-numeric timestamp"
    sha = point.get("git_sha")
    if sha is not None and (not isinstance(sha, str) or not sha):
        return "git_sha must be a non-empty string or null"
    bench = point.get("bench")
    if "schemes" in point:
        schemes = point["schemes"]
        if not isinstance(schemes, dict) or not schemes:
            return "matrix point needs a non-empty schemes object"
        for name, stats in schemes.items():
            if not isinstance(stats, dict):
                return f"scheme {name!r} stats are not an object"
            for key in ("mean_ipc", "raw_min_lifetime"):
                if not _is_number(stats.get(key)):
                    return f"scheme {name!r} missing numeric {key}"
        return None
    if bench == "search":
        if not isinstance(point.get("frontier_size"), int):
            return "search point missing integer frontier_size"
        if not _is_number(point.get("hypervolume")):
            return "search point missing numeric hypervolume"
        return None
    if bench is not None:
        if not isinstance(point.get("count"), int):
            return "throughput point missing integer count"
        if not _is_number(point.get("seconds")) or point["seconds"] <= 0:
            return "throughput point missing positive seconds"
        return None
    return "unrecognised point flavour (no schemes and no bench key)"


def load_bench(path: str | Path) -> tuple[list[dict], list[str]]:
    """Validated points of one trajectory file, plus skip reasons.

    The tolerant counterpart of :func:`load_bench_trajectory`: the file
    envelope is still checked strictly (an unreadable file or a wrong
    ``format_version`` raises, a missing file is empty), but individual
    points that fail :func:`validate_bench_point` — torn writes patched
    by hand, points from abandoned formats — are skipped rather than
    poisoning the whole history.  Each skip yields one human-readable
    reason; callers surface them as warnings.
    """
    path = Path(path)
    points = load_bench_trajectory(path)
    good: list[dict] = []
    skipped: list[str] = []
    for i, point in enumerate(points):
        reason = validate_bench_point(point)
        if reason is None:
            good.append(point)
        else:
            skipped.append(f"{path}: point {i}: {reason}")
    return good, skipped


def bench_point(
    matrix: MatrixResult,
    *,
    label: str = "",
    wall_time_s: float | None = None,
) -> dict:
    """Build one trajectory point from a result matrix.

    ``wall_time_s`` is the total simulation time behind the matrix —
    usually the sum of the matching ledger records' wall times.
    """
    schemes = {}
    for scheme in matrix.schemes:
        ipcs = [matrix.get(wl, scheme).ipc for wl in matrix.workloads]
        schemes[scheme] = {
            "mean_ipc": sum(ipcs) / len(ipcs) if ipcs else 0.0,
            "raw_min_lifetime": matrix.raw_min_lifetime(scheme),
        }
    return {
        "timestamp": time.time(),
        "git_sha": current_git_sha(),
        "label": label or matrix.label,
        "workloads": len(matrix.workloads),
        "cells": len(matrix.results),
        "wall_time_s": wall_time_s,
        "schemes": schemes,
    }


def throughput_point(
    name: str,
    *,
    count: int,
    seconds: float,
    unit: str = "records",
    label: str = "",
    details: dict | None = None,
) -> dict:
    """Build one trajectory point from a raw throughput measurement.

    Counterpart of :func:`bench_point` for the simulator's timing
    benches (``benchmarks/test_bench_throughput.py``): ``count`` items
    of ``unit`` were processed in ``seconds`` of wall time.  ``details``
    carries bench-specific extras (e.g. the reference-path time and the
    kernel speedup).  Points share a trajectory file with matrix points;
    the ``bench`` key marks the flavour.
    """
    if seconds <= 0:
        raise ReproError(f"throughput point {name!r} needs positive seconds")
    return {
        "timestamp": time.time(),
        "git_sha": current_git_sha(),
        "label": label or name,
        "bench": name,
        "unit": unit,
        "count": int(count),
        "seconds": seconds,
        "per_second": count / seconds,
        "details": details or {},
    }


def stage1_point(
    *,
    instructions: int,
    kernel_seconds: float,
    reference_seconds: float,
    label: str = "",
) -> dict:
    """Build one trajectory point from a stage-1 kernel measurement.

    The stage-1 bench (``benchmarks/test_bench_stage1.py``) times the
    vectorized characterisation kernel (:mod:`repro.cpu.kernel`) and the
    reference object-graph loop over the same app/config/seed; the point
    records the kernel time as the headline throughput and keeps the
    reference time and speedup in ``details`` so the trajectory shows
    both absolute speed and the kernel's margin over the reference.
    """
    if kernel_seconds <= 0 or reference_seconds <= 0:
        raise ReproError("stage1 point needs positive kernel and reference times")
    return throughput_point(
        "stage1_kernel",
        count=instructions,
        seconds=kernel_seconds,
        unit="instructions",
        label=label,
        details={
            "reference_seconds": reference_seconds,
            "speedup": round(reference_seconds / kernel_seconds, 3),
        },
    )


def search_bench_point(outcome, *, label: str = "") -> dict:
    """Build one trajectory point from a design-space search outcome.

    ``outcome`` is a :class:`~repro.search.drivers.SearchOutcome` (typed
    loosely to keep :mod:`repro.obs` import-independent of the search
    package).  Plotting frontier size and hypervolume over commits shows
    whether search quality is drifting.
    """
    return {
        "timestamp": time.time(),
        "git_sha": current_git_sha(),
        "label": label or f"search-{outcome.driver}",
        "bench": "search",
        "driver": outcome.driver,
        "objectives": list(outcome.objectives),
        "points": outcome.report.get("points", 0),
        "evaluations": outcome.report.get("evals_total", 0),
        "frontier_size": len(outcome.frontier),
        "hypervolume": outcome.hypervolume,
        "budget_schedule": list(outcome.budget_schedule),
    }


def append_bench_point(path: str | Path, point: dict) -> int:
    """Append one point to a trajectory file; returns the new length."""
    points = load_bench_trajectory(path)
    points.append(point)
    atomic_write_text(path, json.dumps(
        {"format_version": BENCH_FORMAT_VERSION, "points": points},
        indent=1,
    ))
    return len(points)
