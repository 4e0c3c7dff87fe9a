"""The run ledger: append-only provenance records for every simulation.

A :class:`RunLedger` is a JSONL file with one :class:`RunRecord` per
resolved run — the identity of the cell (workload/scheme/seed/budget
plus the :meth:`JobSpec fingerprint <repro.jobs.spec.JobSpec.fingerprint>`
of its inputs), where the result came from (executed, result cache or
resume journal), which stage-2 replay an executed run took, the
headline metrics, wall time, the repository commit and the run's
per-phase wall seconds when spans were recorded.  ``run_workload``, the sweep
engine's ``run_jobs`` and the CLI all append to it, so a directory's
ledger is the full history of what was simulated there and what it
measured — the raw material of the ``repro diff`` regression gate and
the ledger-history section of ``repro report``.

The ledger is a :class:`~repro.common.jsonl.JsonlLog`: records are
flushed and fsynced as they are appended; a torn final line (an
interrupted append) is ignored on read and cut off on the next append;
corruption anywhere earlier raises
:class:`~repro.common.errors.ReproError`, as does an unknown format
version.
"""

from __future__ import annotations

import os
import subprocess
import time
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from pathlib import Path

from repro.common.errors import ReproError
from repro.common.jsonl import JsonlLog
from repro.sim.metrics import WorkloadSchemeResult

#: Ledger record layout version; bump on incompatible schema changes.
LEDGER_FORMAT_VERSION = 1

#: How a run's result was obtained.  ``failed`` marks a quarantined
#: placeholder cell from a ``keep_going`` sweep (zero metrics, no run).
SOURCES = ("executed", "cache", "journal", "failed")


@lru_cache(maxsize=1)
def current_git_sha() -> str | None:
    """The repository HEAD commit, or None outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    sha = out.stdout.strip()
    return sha or None


def git_tree_dirty() -> bool | None:
    """Whether the working tree differs from HEAD (``git status --porcelain``).

    None outside a git checkout.  Not cached: a recorder may run before
    and after an edit in one process.  A dirty tree's measurement is of
    code that :func:`current_git_sha` does not name.  The top-level
    ``BENCH_*.json`` trajectory files do not count: appending a point to
    one must not mark the next point dirty.
    """
    try:
        out = subprocess.run(
            ["git", "status", "--porcelain", "--", ":/", ":(top,exclude)BENCH_*.json"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return bool(out.stdout.strip())


def new_run_id() -> str:
    """A unique, roughly sortable run identifier (``r<epoch>-<hex>``)."""
    return f"r{int(time.time())}-{os.urandom(4).hex()}"


@dataclass
class RunRecord:
    """One ledger line: the provenance of one resolved simulation run."""

    run_id: str
    workload: str
    scheme: str
    seed: int | None
    n_instructions: int
    fingerprint: str | None
    source: str
    wall_time_s: float
    metrics: dict[str, float]
    git_sha: str | None = None
    timestamp: float = 0.0
    #: Wall seconds per runner phase (``{"stage1": seconds, ...}``),
    #: summed from the run's ``phase`` spans; empty when no spans were
    #: recorded.
    profile: dict[str, float] = field(default_factory=dict)
    #: Sweep-engine accounting for grid runs (``{"total": N, ...}``);
    #: empty for standalone runs.
    engine: dict[str, int] = field(default_factory=dict)
    #: The stage-2 replay the run took: ``kernel`` or
    #: ``reference.<reason>`` (``ReplayInputs.path``); None when the
    #: result was served from the cache or the journal, or failed.
    replay_path: str | None = None

    def __post_init__(self) -> None:
        if self.source not in SOURCES:
            raise ReproError(
                f"run record source must be one of {SOURCES}, "
                f"got {self.source!r}"
            )

    @classmethod
    def for_result(
        cls,
        result: WorkloadSchemeResult,
        *,
        seed: int | None,
        n_instructions: int,
        wall_time_s: float,
        source: str = "executed",
        fingerprint: str | None = None,
        run_id: str | None = None,
        profile: dict[str, float] | None = None,
        engine: dict[str, int] | None = None,
        replay_path: str | None = None,
    ) -> "RunRecord":
        """Build the ledger record of one stage-2 result."""
        return cls(
            run_id=run_id or new_run_id(),
            workload=result.workload,
            scheme=result.scheme,
            seed=seed,
            n_instructions=int(n_instructions),
            fingerprint=fingerprint,
            source=source,
            wall_time_s=float(wall_time_s),
            metrics={
                "ipc": result.ipc,
                "min_lifetime": result.min_lifetime,
                "wear_cov": result.wear_cov,
                "llc_hit_rate": result.llc_fetch_hit_rate,
                "effective_capacity": result.effective_capacity,
                "energy_mj": result.energy_mj,
            },
            git_sha=current_git_sha(),
            timestamp=time.time(),
            profile=dict(profile or {}),
            engine=dict(engine or {}),
            replay_path=replay_path,
        )

    def to_dict(self) -> dict:
        """Plain-JSON representation (with the format version)."""
        out = {"v": LEDGER_FORMAT_VERSION}
        out.update(asdict(self))
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RunRecord":
        """Inverse of :meth:`to_dict`.

        Raises:
            ReproError: for a missing field or unsupported version.
        """
        version = data.get("v")
        if version != LEDGER_FORMAT_VERSION:
            raise ReproError(
                f"unsupported ledger record format {version!r} "
                f"(expected {LEDGER_FORMAT_VERSION})"
            )
        try:
            return cls(
                run_id=str(data["run_id"]),
                workload=str(data["workload"]),
                scheme=str(data["scheme"]),
                seed=None if data["seed"] is None else int(data["seed"]),
                n_instructions=int(data["n_instructions"]),
                fingerprint=(
                    None if data["fingerprint"] is None
                    else str(data["fingerprint"])
                ),
                source=str(data["source"]),
                wall_time_s=float(data["wall_time_s"]),
                metrics={
                    str(k): float(v) for k, v in data["metrics"].items()
                },
                git_sha=(
                    None if data.get("git_sha") is None
                    else str(data["git_sha"])
                ),
                timestamp=float(data.get("timestamp", 0.0)),
                profile={
                    str(k): float(v)
                    for k, v in data.get("profile", {}).items()
                },
                engine={
                    str(k): int(v)
                    for k, v in data.get("engine", {}).items()
                },
                replay_path=(
                    None if data.get("replay_path") is None
                    else str(data["replay_path"])
                ),
            )
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ReproError(f"malformed ledger record: {exc}") from exc


class RunLedger(JsonlLog):
    """Append-only JSONL file of :class:`RunRecord` provenance lines."""

    kind = "ledger"
    version = LEDGER_FORMAT_VERSION

    def load(self) -> list[RunRecord]:
        """All records in append order (empty when the file is missing).

        Raises:
            ReproError: for corruption other than a torn final record.
        """
        return self.read(RunRecord.from_dict)

    def append(self, record: RunRecord) -> None:
        """Append one record (flushed and fsynced immediately)."""
        self.write(record.to_dict())


def as_ledger(ledger: RunLedger | str | Path | None) -> RunLedger | None:
    """Coerce a path-or-ledger argument (the runner/scheduler contract)."""
    if ledger is None or isinstance(ledger, RunLedger):
        return ledger
    return RunLedger(ledger)
