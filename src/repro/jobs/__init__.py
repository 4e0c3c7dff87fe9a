"""The parallel sweep engine: job specs, scheduling, caching, resume.

Paper-scale experiments are grids of independent (workload, scheme)
simulations; this package turns each cell into a schedulable, cacheable,
resumable job:

* :mod:`repro.jobs.spec` — :class:`JobSpec`, the frozen JSON-serialisable
  identity of one cell with a stable content-hash ``fingerprint()``;
* :mod:`repro.jobs.cache` — :class:`ResultCache`, an on-disk
  content-addressed store mapping fingerprints to results (a
  :class:`~repro.common.store.ContentStore`, like the stage-1 store);
* :mod:`repro.jobs.journal` — :class:`SweepJournal`, an append-only JSONL
  record of completed cells enabling ``--resume``;
* :mod:`repro.jobs.scheduler` — :func:`run_jobs`, the process-pool
  scheduler with per-job retry and a deterministic merge.

High-level entry points (:func:`repro.sim.runner.run_matrix`, the
``repro sweep`` CLI command) wire these together; see ``docs/SWEEPS.md``
for the job model, cache-key contents, invalidation rules and the
determinism guarantee.
"""

from repro.jobs.cache import CACHE_FORMAT_VERSION, ResultCache
from repro.jobs.journal import JOURNAL_FORMAT_VERSION, SweepJournal
from repro.jobs.scheduler import (
    DEFAULT_RETRIES,
    SweepJob,
    SweepReport,
    matrix_jobs,
    run_jobs,
)
from repro.jobs.spec import SPEC_FORMAT_VERSION, JobSpec

__all__ = [
    "CACHE_FORMAT_VERSION",
    "ResultCache",
    "JOURNAL_FORMAT_VERSION",
    "SweepJournal",
    "DEFAULT_RETRIES",
    "SweepJob",
    "SweepReport",
    "matrix_jobs",
    "run_jobs",
    "JobSpec",
    "SPEC_FORMAT_VERSION",
]
