"""Shared low-level utilities used by every subsystem.

This package holds the pieces that are not specific to any architectural
component: size/time unit helpers (:mod:`repro.common.units`), address
arithmetic (:mod:`repro.common.addr`), deterministic random-number plumbing
(:mod:`repro.common.rng`), statistics helpers (:mod:`repro.common.stats`),
the exception hierarchy (:mod:`repro.common.errors`), the append-only
JSONL log behind the journals, ledger and span file
(:mod:`repro.common.jsonl`), and the content-addressed store and atomic
file writer behind the result cache and the stage-1 store
(:mod:`repro.common.store`).
"""

from repro.common.errors import (
    ConfigError,
    ReproError,
    SimulationError,
    TraceError,
)
from repro.common.units import (
    GHZ,
    KIB,
    MIB,
    SECONDS_PER_YEAR,
    cycles_to_seconds,
    cycles_to_years,
    parse_size,
)

__all__ = [
    "ConfigError",
    "ReproError",
    "SimulationError",
    "TraceError",
    "GHZ",
    "KIB",
    "MIB",
    "SECONDS_PER_YEAR",
    "cycles_to_seconds",
    "cycles_to_years",
    "parse_size",
]
