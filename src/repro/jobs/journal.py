"""Append-only sweep journals: resume an interrupted grid where it died.

A :class:`SweepJournal` is a JSONL file with one record per *completed*
job — fingerprint, human-readable labels and the full result payload
(the :mod:`repro.sim.store` layout).  Records are flushed and fsynced as
they are appended, so after a crash or a ^C the journal holds exactly
the finished cells; re-invoking the sweep with ``resume=True`` replays
those from the journal and executes only the remainder.

Both journals here are :class:`~repro.common.jsonl.JsonlLog` files and
share its robustness contract: a torn final record (the interrupted
append, whose cell simply reruns) is ignored and cut off on the next
append; earlier corruption and unknown ``v`` versions raise
:class:`~repro.common.errors.ReproError`, since skipping completed work
or trusting results of another layout would be worse than asking.

The journal is per-sweep bookkeeping; the cross-sweep store is the
content-addressed :class:`~repro.jobs.cache.ResultCache`.
"""

from __future__ import annotations

from repro.common.errors import ReproError
from repro.common.jsonl import JsonlLog
from repro.jobs.spec import JobSpec
from repro.sim.metrics import WorkloadSchemeResult
from repro.sim.store import result_from_dict, result_to_dict

#: Journal record layout version.
JOURNAL_FORMAT_VERSION = 1

#: Quarantine record layout version.
QUARANTINE_FORMAT_VERSION = 1

#: Why a job was quarantined.
QUARANTINE_KINDS = ("error", "crash", "timeout")


class SweepJournal(JsonlLog):
    """Append-only JSONL record of completed sweep jobs."""

    kind = "journal"
    version = JOURNAL_FORMAT_VERSION

    def load(self) -> dict[str, WorkloadSchemeResult]:
        """Completed results keyed by fingerprint (empty when no file).

        Raises:
            ReproError: for corruption other than a torn final record.
        """
        return dict(self.read(
            lambda record: (
                record["fingerprint"], result_from_dict(record["result"])
            )
        ))

    def record(self, spec: JobSpec, result: WorkloadSchemeResult) -> None:
        """Append one completed job (flushed and fsynced immediately)."""
        self.write({
            "v": JOURNAL_FORMAT_VERSION,
            "fingerprint": spec.fingerprint(),
            "workload": spec.workload,
            "scheme": spec.scheme,
            "result": result_to_dict(result),
        })


class QuarantineJournal(JsonlLog):
    """Append-only JSONL record of poisoned sweep jobs.

    A *poison job* is one the resilience layer gave up on: it crashed
    the worker pool, exceeded its watchdog deadline, or exhausted its
    retries.  Under ``keep_going`` the scheduler records it here —
    fingerprint, label, failure kind (:data:`QUARANTINE_KINDS`),
    attempt count, the reason text and the full
    :meth:`spec payload <repro.jobs.spec.JobSpec.to_dict>` so the cell
    can be re-run in isolation — and continues with the rest of the
    sweep.  Quarantined cells are *not* journaled as completed, so a
    later ``--resume`` retries them.

    The file is append-only across runs (a quarantine is an incident
    log, not per-sweep bookkeeping).
    """

    kind = "quarantine"
    version = QUARANTINE_FORMAT_VERSION

    def load(self) -> list[dict]:
        """All quarantine records in append order (empty when no file).

        Raises:
            ReproError: for corruption other than a torn final record.
        """
        return self.read()

    def record(
        self, spec: JobSpec, *, kind: str, reason: str, attempts: int
    ) -> None:
        """Append one poisoned job (flushed and fsynced immediately)."""
        if kind not in QUARANTINE_KINDS:
            raise ReproError(
                f"quarantine kind must be one of {QUARANTINE_KINDS}, "
                f"got {kind!r}"
            )
        self.write({
            "v": QUARANTINE_FORMAT_VERSION,
            "fingerprint": spec.fingerprint(),
            "label": spec.label(),
            "workload": spec.workload,
            "scheme": spec.scheme,
            "kind": kind,
            "attempts": int(attempts),
            "reason": reason,
            "spec": spec.to_dict(),
        })
