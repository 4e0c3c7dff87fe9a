"""Content-addressed on-disk store of stage-1 characterisation results.

A :class:`Stage1Store` persists full :class:`~repro.cpu.core.Stage1Result`
payloads — Table II statistics, criticality meters and the complete L3
reference stream — keyed by ``(app, config_signature, seed,
n_instructions)``.  It is the disk tier below the in-memory
:class:`~repro.sim.runner.Stage1Cache`: parallel sweep workers,
successive-halving search rungs and repeat runs all need the *same*
per-app characterisation for a given upper-hierarchy configuration, and
without a shared store each worker process re-simulates it from cold.

Because the stored result carries its calibrated ``base_cpi``, a store
hit skips the calibration probes too — a fully warm store performs zero
stage-1 simulations.

Invalidation rules (mirroring :class:`~repro.jobs.cache.ResultCache`):

* the key covers every stage-1 input — the app, the stage-1-relevant
  configuration fields (:func:`~repro.sim.calibrate.config_signature`),
  the seed and the instruction budget — plus ``STAGE1_FORMAT_VERSION``;
* every entry embeds ``STAGE1_FORMAT_VERSION``; entries written by an
  incompatible engine read as misses, never as errors;
* corrupt or truncated entries read as misses, counted as ``corrupt``.

Atomic writes, miss rules and the ``jobs.stage1.store.*`` hit/miss/
write/corrupt counters come from :class:`repro.common.store.ContentStore`.

The payload is a single ``.npz`` member set: the stream and meter arrays
verbatim (dtype-preserving, so round-trips are bit-exact) plus one JSON
metadata member for the scalar statistics.  Python's JSON float encoding
uses ``repr``, which round-trips every finite double exactly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np

from repro.common.store import ContentStore
from repro.config import SystemConfig

#: On-disk entry layout version; bump to invalidate every stored result.
STAGE1_FORMAT_VERSION = 1

#: Stage1Result statistics fields, stored as JSON objects in the metadata.
_STATS = ("l1_stats", "l2_stats", "l3_stats", "mshr_stats", "cpt_stats")


def _encode(fh, result, fingerprint: str) -> None:
    from repro.cpu.core import L3Stream

    scalars, arrays = {}, {}
    for f in dataclasses.fields(result.meters):
        value = getattr(result.meters, f.name)
        if isinstance(value, np.ndarray):
            arrays[f"meters_{f.name}"] = value
        else:
            scalars[f.name] = value
    meta = {
        "format_version": STAGE1_FORMAT_VERSION,
        "fingerprint": fingerprint,
        "app": result.app,
        "instructions": result.instructions,
        "cycles": result.cycles,
        "base_cpi": result.base_cpi,
        "mem_queue_cycles": result.mem_queue_cycles,
        "meters": scalars,
        **{
            name: dataclasses.asdict(getattr(result, name))
            for name in _STATS
        },
    }
    stream = {
        f"stream_{f.name}": getattr(result.stream, f.name)
        for f in dataclasses.fields(L3Stream)
    }
    np.savez(fh, meta=json.dumps(meta), **stream, **arrays)


def _decode(fh):
    from repro.cache.cache import CacheStats
    from repro.cache.mshr import MshrStats
    from repro.core.criticality import CptStats, CriticalityMeters
    from repro.cpu.core import L3Stream, Stage1Result

    with np.load(fh, allow_pickle=False) as data:
        meta = json.loads(str(data["meta"]))
        if meta.get("format_version") != STAGE1_FORMAT_VERSION:
            return None
        stream = L3Stream(**{
            f.name: data[f"stream_{f.name}"] for f in dataclasses.fields(L3Stream)
        })
        m = meta["meters"]
        meters = CriticalityMeters(
            **{**m, "thresholds": tuple(m["thresholds"])},
            **{
                name[len("meters_"):]: data[name]
                for name in data.files if name.startswith("meters_")
            },
        )
    stats_types = (CacheStats, CacheStats, CacheStats, MshrStats, CptStats)
    return Stage1Result(
        app=meta["app"],
        instructions=meta["instructions"],
        cycles=meta["cycles"],
        base_cpi=meta["base_cpi"],
        stream=stream,
        meters=meters,
        mem_queue_cycles=meta["mem_queue_cycles"],
        **{
            name: cls(**meta[name]) for name, cls in zip(_STATS, stats_types)
        },
    )


class Stage1Store(ContentStore):
    """Content-addressed on-disk tier for stage-1 results."""

    kind = "stage-1 store"
    suffix = ".npz"
    counters = "jobs.stage1.store"

    def fingerprint(
        self,
        app: str,
        config: SystemConfig,
        *,
        seed: int | None,
        n_instructions: int,
    ) -> str:
        """Content address of one stage-1 run's entry."""
        from repro.sim.calibrate import config_signature

        key = {
            "format_version": STAGE1_FORMAT_VERSION,
            "app": app,
            "config_signature": list(config_signature(config)),
            "seed": seed,
            "n_instructions": n_instructions,
        }
        digest = hashlib.sha256(
            json.dumps(key, sort_keys=True).encode("utf-8")
        ).hexdigest()
        return digest[:32]

    def get(
        self,
        app: str,
        config: SystemConfig,
        *,
        seed: int | None = None,
        n_instructions: int,
    ):
        """The stored result, or None on a miss."""
        return self._read(
            self.fingerprint(app, config, seed=seed, n_instructions=n_instructions),
            _decode,
        )

    def put(
        self,
        result,
        config: SystemConfig,
        *,
        seed: int | None = None,
        n_instructions: int,
    ) -> None:
        """Persist one result under its key (atomic)."""
        fingerprint = self.fingerprint(
            result.app, config, seed=seed, n_instructions=n_instructions
        )
        self._write(fingerprint, lambda fh: _encode(fh, result, fingerprint))
