"""Simulator-throughput benchmarks (true timing benches).

These measure the hot loops of the library itself — useful for tracking
performance regressions of the simulator, independent of the paper
figures:

* stage 1: the core+L1/L2 interval model,
* stage 2: one full workload replay under S-NUCA,
* the vectorized replay kernel against the reference object-graph loop
  (same warmed state, replay phase only), which must stay >= 3x faster;
* the closed-form array warm-up against the object-graph warm-up
  (``NucaLLC.prefill_many``), which must stay >= 10x faster.

Set ``REPRO_BENCH_RECORD=<path>`` to append each bench's best time to a
trajectory file via :mod:`repro.obs.bench` (CI uploads it as an
artifact; the committed ``BENCH_throughput.json`` holds the historical
points).
"""

import os
import time

from repro.config import baseline_config
from repro.cpu.core import AppSimulator
from repro.mem.model import MainMemory
from repro.noc.mesh import Mesh
from repro.nuca import NucaLLC, make_policy
from repro.nuca.kernel import replay as kernel_replay
from repro.reram.wear import WearTracker
from repro.sim.runner import (
    Stage1Cache,
    _replay_reference,
    _warm_arrays,
    _warm_llc,
    prepare_replay,
    run_workload,
)
from repro.trace.workloads import make_workloads

_INSTRUCTIONS = 40_000
#: Budget of the kernel-vs-reference bench.  The kernel pays a fixed
#: snapshot cost per replay, so the assertion is calibrated to this
#: budget (the speedup keeps growing with it) rather than to the
#: session-wide ``REPRO_INSTRUCTIONS``.
_KERNEL_INSTRUCTIONS = 150_000
_KERNEL_MIN_SPEEDUP = 3.0
#: Floor of the array warm-up over the object-graph warm-up.
_WARMUP_MIN_SPEEDUP = 10.0


def _record(name: str, *, count: int, seconds: float, unit: str,
            details: dict | None = None) -> None:
    """Append one throughput point when ``REPRO_BENCH_RECORD`` is set."""
    out = os.environ.get("REPRO_BENCH_RECORD")
    if not out:
        return
    from repro.obs.bench import append_bench_point, throughput_point

    append_bench_point(out, throughput_point(
        name, count=count, seconds=seconds, unit=unit, details=details,
    ))


def test_bench_stage1_throughput(benchmark):
    """Core+L1/L2 simulation speed (instructions simulated per call)."""

    def run():
        return AppSimulator("milc", baseline_config(), seed=9).run(_INSTRUCTIONS)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    best = benchmark.stats.stats.min
    print(f"\nstage-1: {result.instructions} instructions, "
          f"{len(result.stream)} L3 records per run, "
          f"{result.instructions / best / 1e6:.2f} Minstr/s")
    _record("stage1", count=result.instructions, seconds=best,
            unit="instructions")
    assert result.instructions > 0


def test_bench_stage2_throughput(benchmark):
    """NUCA LLC replay speed for one workload under S-NUCA."""
    config = baseline_config()
    stage1 = Stage1Cache()
    workload = make_workloads(num_cores=16, seed=9)[0]
    # Warm the stage-1 cache outside the timed region.
    for app in workload.apps:
        stage1.get(app, config, seed=9, n_instructions=_INSTRUCTIONS)

    def run():
        return run_workload(
            workload, "S-NUCA", config, seed=9,
            n_instructions=_INSTRUCTIONS, stage1=stage1,
        )

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    best = benchmark.stats.stats.min
    print(f"\nstage-2: {int(result.bank_writes.sum())} bank writes replayed")
    _record("stage2_workload", count=_INSTRUCTIONS, seconds=best,
            unit="instructions/core")
    assert result.ipc > 0


def test_bench_kernel_vs_reference():
    """The replay kernel must beat the reference loop by >= 3x.

    Both paths replay the identical warmed state (fresh ``prepare_replay``
    per measurement — the replay mutates the LLC); only the measured
    loop is timed, which is exactly what the kernel accelerates.
    """
    config = baseline_config()
    stage1 = Stage1Cache()
    workload = make_workloads(num_cores=16, seed=9)[0]
    for app in workload.apps:
        stage1.get(app, config, seed=9, n_instructions=_KERNEL_INSTRUCTIONS)

    def measure(replay_fn, use_kernel):
        best = float("inf")
        for _ in range(3):
            prep = prepare_replay(
                workload, "S-NUCA", config, seed=9,
                n_instructions=_KERNEL_INSTRUCTIONS, stage1=stage1,
                use_kernel=use_kernel,
            )
            t0 = time.perf_counter()
            replay_fn(prep)
            best = min(best, time.perf_counter() - t0)
        return best, prep.merged.total

    kernel_s, records = measure(lambda p: kernel_replay(
        p.llc, p.merged, state=p.state, cpts=p.cpts, threshold=p.threshold,
        block_cycles=p.block_cycles,
    ), True)
    reference_s, _ = measure(lambda p: _replay_reference(
        p.llc, p.merged, cpts=p.cpts, threshold=p.threshold,
        block_cycles=p.block_cycles,
    ), False)
    speedup = reference_s / kernel_s
    print(f"\nkernel: {records} records in {kernel_s:.3f}s "
          f"({records / kernel_s / 1e6:.2f} Mrec/s), "
          f"reference {reference_s:.3f}s "
          f"({records / reference_s / 1e6:.2f} Mrec/s), "
          f"speedup {speedup:.2f}x")
    _record("kernel_replay", count=records, seconds=kernel_s, unit="records",
            details={"reference_seconds": reference_s,
                     "speedup": round(speedup, 3)})
    assert speedup >= _KERNEL_MIN_SPEEDUP, (
        f"replay kernel is only {speedup:.2f}x the reference loop "
        f"(floor {_KERNEL_MIN_SPEEDUP}x at {_KERNEL_INSTRUCTIONS} "
        "instructions/core)"
    )


def test_bench_array_warmup_vs_prefill():
    """The array warm-up must beat the object-graph warm-up by >= 10x.

    Both build the warm LLC of the 16-core WL1 mix under Re-NUCA (the
    costliest scheme to warm: criticality draws and TLB mapping bits) on
    a fresh controller; stage 1 is memoised outside the timed region.
    """
    config = baseline_config()
    stage1 = Stage1Cache()
    workload = make_workloads(num_cores=16, seed=1)[0]
    results = [
        stage1.get(app, config, seed=1, n_instructions=_INSTRUCTIONS)
        for app in workload.apps
    ]

    def measure(warm_fn):
        best = float("inf")
        for _ in range(3):
            mesh = Mesh(config.noc)
            wear = WearTracker(config.num_banks)
            llc = NucaLLC(config, make_policy("Re-NUCA", config, mesh, wear),
                          mesh, MainMemory(config.memory), wear)
            t0 = time.perf_counter()
            warm_fn(llc, workload, config, results, seed=1)
            best = min(best, time.perf_counter() - t0)
        return best, int(wear.total_writes())

    array_s, lines = measure(_warm_arrays)
    prefill_s, prefill_lines = measure(_warm_llc)
    assert lines == prefill_lines
    speedup = prefill_s / array_s
    print(f"\nwarm-up: {lines} lines, array {array_s:.3f}s "
          f"({lines / array_s / 1e6:.2f} Mlines/s), prefill_many "
          f"{prefill_s:.3f}s, speedup {speedup:.1f}x")
    _record("array_warmup", count=lines, seconds=array_s, unit="lines",
            details={"prefill_seconds": prefill_s,
                     "speedup": round(speedup, 3)})
    assert speedup >= _WARMUP_MIN_SPEEDUP, (
        f"array warm-up is only {speedup:.1f}x the object-graph warm-up "
        f"(floor {_WARMUP_MIN_SPEEDUP}x)"
    )
