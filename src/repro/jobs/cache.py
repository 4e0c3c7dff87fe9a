"""Content-addressed on-disk cache of stage-2 results.

A :class:`ResultCache` maps :meth:`JobSpec fingerprints
<repro.jobs.spec.JobSpec.fingerprint>` to persisted
:class:`~repro.sim.metrics.WorkloadSchemeResult` payloads (the same JSON
layout :mod:`repro.sim.store` writes into matrix files), so re-running a
sweep after changing an unrelated flag replays only the cells whose
inputs actually changed.

Invalidation rules:

* the fingerprint covers every simulation input (workload content,
  scheme, seed, budget, configuration signature, fault point) plus
  ``SPEC_FORMAT_VERSION`` — any input change selects a different file;
* every entry embeds ``CACHE_FORMAT_VERSION``; entries written by an
  incompatible engine read as misses (and are overwritten on the next
  ``put``), never as errors;
* corrupt or truncated entries read as misses too, counted as
  ``corrupt``.  Writes are atomic, so these only appear when something
  outside the engine damaged the directory.

Atomic writes, miss rules and the ``jobs.cache.*`` hit/miss/write/
corrupt counters come from :class:`repro.common.store.ContentStore`.
"""

from __future__ import annotations

import json

from repro.common.store import ContentStore
from repro.jobs.spec import JobSpec
from repro.sim.metrics import WorkloadSchemeResult
from repro.sim.store import result_from_dict, result_to_dict

#: On-disk entry layout version; bump to invalidate every cached result.
CACHE_FORMAT_VERSION = 1


def _decode(fh) -> WorkloadSchemeResult | None:
    payload = json.load(fh)
    if payload.get("format_version") != CACHE_FORMAT_VERSION:
        return None
    return result_from_dict(payload["result"])


class ResultCache(ContentStore):
    """Fingerprint-addressed store of workload/scheme results."""

    kind = "result cache"
    suffix = ".json"
    counters = "jobs.cache"

    def get(self, spec: JobSpec) -> WorkloadSchemeResult | None:
        """The cached result for ``spec``, or None on a miss."""
        return self._read(spec.fingerprint(), _decode)

    def put(self, spec: JobSpec, result: WorkloadSchemeResult) -> None:
        """Persist one result under its spec's fingerprint (atomic)."""
        fingerprint = spec.fingerprint()
        payload = {
            "format_version": CACHE_FORMAT_VERSION,
            "fingerprint": fingerprint,
            "spec": spec.to_dict(),
            "result": result_to_dict(result),
        }
        data = json.dumps(payload).encode("utf-8")
        self._write(fingerprint, lambda fh: fh.write(data))
