"""Persist evaluation results as JSON.

``MatrixResult`` objects hold everything the paper's figures need; this
module round-trips them to a documented JSON layout so that

* EXPERIMENTS.md numbers can be regenerated without re-simulating,
* long benchmark runs can be resumed/compared across machines,
* external tooling (plotting notebooks) can consume the results.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.common.errors import ReproError
from repro.common.store import atomic_write_text
from repro.sim.metrics import MatrixResult, WorkloadSchemeResult
from repro.telemetry.intervals import IntervalSeries

#: Format version written into every result file.
FORMAT_VERSION = 1


def result_to_dict(result: WorkloadSchemeResult) -> dict:
    out = {
        "workload": result.workload,
        "scheme": result.scheme,
        "apps": list(result.apps),
        "per_core_ipc": result.per_core_ipc.tolist(),
        "per_core_instructions": result.per_core_instructions.tolist(),
        "per_core_cycles": result.per_core_cycles.tolist(),
        "bank_writes": result.bank_writes.tolist(),
        "bank_lifetimes": result.bank_lifetimes.tolist(),
        "elapsed_cycles": result.elapsed_cycles,
        "llc_fetch_hit_rate": result.llc_fetch_hit_rate,
        "llc_mean_fetch_latency": result.llc_mean_fetch_latency,
        "noc_mean_hops": result.noc_mean_hops,
        "critical_fill_fraction": result.critical_fill_fraction,
        "llc_fetches": result.llc_fetches,
        "llc_writebacks": result.llc_writebacks,
        "noc_total_hops": result.noc_total_hops,
        "energy_mj": result.energy_mj,
        "age_fraction": result.age_fraction,
        "effective_capacity": result.effective_capacity,
        "dead_banks": result.dead_banks,
        "remap_traffic": result.remap_traffic,
        "fills_skipped": result.fills_skipped,
        "transient_faults": result.transient_faults,
    }
    # Interval-dump series are optional (telemetry runs only); the key is
    # simply absent otherwise, keeping old files and new readers aligned.
    if result.intervals is not None:
        out["intervals"] = result.intervals.to_dict()
    # Failure markers (quarantined --keep-going cells) use the same
    # optional-key convention: absent means a real result.
    if result.failed:
        out["failed"] = True
        out["failure_reason"] = result.failure_reason
    return out


def result_from_dict(data: dict) -> WorkloadSchemeResult:
    return WorkloadSchemeResult(
        workload=data["workload"],
        scheme=data["scheme"],
        apps=tuple(data["apps"]),
        per_core_ipc=np.asarray(data["per_core_ipc"]),
        per_core_instructions=np.asarray(data["per_core_instructions"], dtype=np.int64),
        per_core_cycles=np.asarray(data["per_core_cycles"]),
        bank_writes=np.asarray(data["bank_writes"], dtype=np.int64),
        bank_lifetimes=np.asarray(data["bank_lifetimes"]),
        elapsed_cycles=data["elapsed_cycles"],
        llc_fetch_hit_rate=data["llc_fetch_hit_rate"],
        llc_mean_fetch_latency=data["llc_mean_fetch_latency"],
        noc_mean_hops=data["noc_mean_hops"],
        critical_fill_fraction=data.get("critical_fill_fraction", 0.0),
        llc_fetches=data.get("llc_fetches", 0),
        llc_writebacks=data.get("llc_writebacks", 0),
        noc_total_hops=data.get("noc_total_hops", 0),
        energy_mj=data.get("energy_mj", 0.0),
        age_fraction=data.get("age_fraction", 0.0),
        effective_capacity=data.get("effective_capacity", 1.0),
        dead_banks=data.get("dead_banks", 0),
        remap_traffic=data.get("remap_traffic", 0),
        fills_skipped=data.get("fills_skipped", 0),
        transient_faults=data.get("transient_faults", 0),
        intervals=(
            IntervalSeries.from_dict(data["intervals"])
            if "intervals" in data
            else None
        ),
        failed=bool(data.get("failed", False)),
        failure_reason=str(data.get("failure_reason", "")),
    )


def save_matrix(path: str | Path, matrix: MatrixResult) -> None:
    """Write one matrix (all its workload x scheme cells) to JSON."""
    payload = {
        "format_version": FORMAT_VERSION,
        "label": matrix.label,
        "schemes": list(matrix.schemes),
        "workloads": list(matrix.workloads),
        "results": [
            result_to_dict(result) for result in matrix.results.values()
        ],
    }
    atomic_write_text(path, json.dumps(payload, indent=1))


def load_matrix(path: str | Path) -> MatrixResult:
    """Read a matrix written by :func:`save_matrix`.

    Raises:
        ReproError: for a wrong format version or malformed payload.
    """
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ReproError(f"cannot read result file {path}: {exc}") from exc
    if payload.get("format_version") != FORMAT_VERSION:
        raise ReproError(
            f"{path}: unsupported result format "
            f"{payload.get('format_version')!r} (expected {FORMAT_VERSION})"
        )
    matrix = MatrixResult(
        label=payload["label"],
        schemes=tuple(payload["schemes"]),
        workloads=tuple(payload["workloads"]),
    )
    for raw in payload["results"]:
        matrix.add(result_from_dict(raw))
    return matrix
