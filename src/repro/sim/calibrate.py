"""Per-application base-CPI calibration.

The interval core model splits CPI into a *base* part (every non-memory
resource: issue width, functional units, branch mispredictions, L1-hit
latencies) and the memory-stall part it simulates explicitly.  Table II
gives each app's total single-core IPC on the baseline machine, so the
base part is whatever is left after simulating the stalls:

    base_cpi = 1 / IPC_target - stall_cpi(measured)

``stall_cpi`` itself depends mildly on ``base_cpi`` (a slower front-end
hides more memory latency), so the solver iterates a couple of short
fixed-point steps — plenty, since the dependence is weak and the paper's
conclusions rest on *relative* IPC between NUCA schemes.

Only ``cycles`` is read, and of a stage-1 run only the timing depends on
``base_cpi``: the trace, every cache hit and victim, the prefetcher's
coverage and the DRAM open-row hits follow from line order alone.  So
on the stage-1 kernel path each app's caches are walked once
(:func:`repro.cpu.kernel.walk`) and every probe only re-times the walk
(:func:`repro.cpu.kernel.retime`: ROB, MSHR file and memory pipe), which
gives the same floats as a full probe run.  Where the kernel does not
engage (``REPRO_KERNEL=0``, or a configuration
:func:`~repro.cpu.kernel.kernel_supported` rejects) each probe is a full
reference :meth:`~repro.cpu.core.AppSimulator.run`.

A 120k-instruction walk reaches only part of the nominal L3 (7 087 of
22 528 sets over one WL1 mix's 11 apps), and builds only those sets.
The cyclic garbage collector is paused for the whole calibration
(:func:`~repro.cpu.kernel.gc_paused`): the walked simulator holds tens of
thousands of cache payloads, but it is acyclic and dies with the probe,
so no collection ever has to walk them.

Calibrations are memoised per (app, config signature, seed, probe budget).
"""

from __future__ import annotations

from repro.config import SystemConfig
from repro.cpu.core import AppSimulator
from repro.cpu.kernel import gc_paused, retime, walk
from repro.trace.profiles import get_profile

#: Instruction budget of one calibration probe run.
CALIBRATION_INSTRUCTIONS = 120_000

#: Fixed-point iterations (2 suffices; see module docstring).
CALIBRATION_STEPS = 2

#: Clamp range for the base CPI (0.25 = 4-wide issue upper bound;
#: 20 covers even mcf's 14+ CPI).
BASE_CPI_MIN = 0.25
BASE_CPI_MAX = 20.0

_cache: dict[tuple, float] = {}


def config_signature(config: SystemConfig) -> tuple:
    """Hashable summary of the configuration fields stage 1 depends on.

    Memoised on the config instance: sweep inner loops call this once
    per :meth:`~repro.sim.runner.Stage1Cache.get`, and rebuilding the
    tuple from six nested dataclasses on every lookup is pure overhead.
    Configs are frozen, so the signature can never go stale; the cache
    slot is written through ``object.__setattr__`` and lives outside the
    declared fields (invisible to ``==``, ``hash`` and ``asdict``).
    """
    sig = config.__dict__.get("_signature")
    if sig is None:
        sig = _build_signature(config)
        object.__setattr__(config, "_signature", sig)
    return sig


def _build_signature(config: SystemConfig) -> tuple:
    # Every field stage 1 reads, and nothing stage 2 owns: trace synthesis
    # (cache geometries incl. line size), the interval core (ROB), the
    # private hierarchy and nominal L3 (sizes/assoc/latencies), the
    # one-hop L3 round trip, the DRAM model (row-buffer + bandwidth), and
    # the criticality predictor.  NUCA/NoC-topology/ReRAM/TLB knobs are
    # deliberately absent so sweeps over them share one characterisation
    # (guarded by tests/test_stage1_store.py).
    return (
        config.num_cores,
        config.core.clock_hz,
        config.core.rob_entries,
        config.l1.size_bytes,
        config.l1.assoc,
        config.l1.latency,
        config.l1.line_bytes,
        config.l2.size_bytes,
        config.l2.assoc,
        config.l2.latency,
        config.l2.line_bytes,
        config.l3_bank.size_bytes,
        config.l3_bank.assoc,
        config.l3_bank.latency,
        config.l3_bank.line_bytes,
        config.noc.hop_cycles,
        config.memory.latency_cycles,
        config.memory.row_hit_latency_cycles,
        config.memory.bandwidth_lines_per_cycle,
        config.memory.lines_per_row,
        config.memory.dram_banks,
        config.criticality.threshold_percent,
        config.criticality.block_cycles,
        config.criticality.table_entries,
    )


def calibrated_base_cpi(
    app: str,
    config: SystemConfig,
    *,
    seed: int | None = None,
    probe_instructions: int = CALIBRATION_INSTRUCTIONS,
) -> float:
    """Base CPI that lands the app's simulated IPC near its Table II value."""
    profile = get_profile(app)
    key = (app, config_signature(config), seed, probe_instructions)
    cached = _cache.get(key)
    if cached is not None:
        return cached

    target_cpi = 1.0 / profile.ipc
    base = max(BASE_CPI_MIN, min(BASE_CPI_MAX, 0.7 * target_cpi))
    # The walked simulator is acyclic: dropping the probe frees it, so no
    # collection ever walks its tens of thousands of cache payloads.
    with gc_paused():
        probe = _probe(app, config, seed, probe_instructions)
        for _ in range(CALIBRATION_STEPS):
            cycles, instructions = probe(base)
            measured_cpi = cycles / instructions
            stall_cpi = measured_cpi - base
            base = max(BASE_CPI_MIN, min(BASE_CPI_MAX, target_cpi - stall_cpi))
        del probe

    _cache[key] = base
    return base


def _probe(app: str, config: SystemConfig, seed: int | None, n: int):
    """``base_cpi -> (cycles, instructions)`` of one ``n``-instruction probe.

    On the stage-1 kernel path the app's caches are walked once, here, and
    each probe re-times the walk; otherwise (``REPRO_KERNEL=0`` or a
    configuration the kernel cannot drive) each probe is a full reference
    run.  Both give the same floats.
    """
    sim = AppSimulator(app, config, seed=seed)
    if sim._kernel_engaged(None):
        cache_walk = walk(sim, n)
        return lambda base_cpi: retime(cache_walk, base_cpi)

    def reference(base_cpi: float) -> tuple[float, int]:
        result = AppSimulator(app, config, seed=seed, base_cpi=base_cpi).run(
            n, use_kernel=False
        )
        return result.cycles, result.instructions

    return reference


def clear_cache() -> None:
    """Forget all memoised calibrations (tests use this)."""
    _cache.clear()
