"""Simulator-throughput benchmarks (true timing benches).

These measure the hot loops of the library itself — useful for tracking
performance regressions of the simulator, independent of the paper
figures:

* stage 1: the core+L1/L2 interval model,
* stage 2: one full workload replay under S-NUCA,
* the vectorized replay kernel against the reference object-graph loop
  (same warmed state, replay phase only), which must stay >= 3x faster;
* the closed-form array warm-up against the object-graph warm-up
  (``NucaLLC.prefill_many``), which must stay >= 10x faster and within
  a working-memory bound per warm line (``tracemalloc`` peak): the warm
  state plus one run of the warm stream;
* the Re-NUCA replay kernel against the reference loop on a 16-core
  WL3 cell, which must stay >= 1.5x faster and within a working-memory
  bound per warm frame and per record (``tracemalloc`` peak);
* the stream merge plus the kernel replay of that cell under Re-NUCA
  and R-NUCA, which must stay within a working-memory bound per merged
  record (``tracemalloc`` peak), and within a bound on the bytes each
  merged record adds to that peak from half the budget to the full
  budget.

Set ``REPRO_BENCH_RECORD=<path>`` to append each bench's best time to a
trajectory file via :mod:`repro.obs.bench` (CI uploads it as an
artifact; the committed ``BENCH_throughput.json`` holds the historical
points).
"""

import gc
import os
import time
import tracemalloc

import pytest

from repro.config import baseline_config
from repro.cpu.core import AppSimulator
from repro.mem.model import MainMemory
from repro.noc.mesh import Mesh
from repro.nuca import NucaLLC, make_policy
from repro.nuca.kernel import replay as kernel_replay
from repro.reram.wear import WearTracker
from repro.sim.runner import (
    Stage1Cache,
    _merge_streams,
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
#: Bound on the array warm-up's ``tracemalloc`` peak per warm line.  The
#: warm state itself is about 15 B/line (tag, owner, criticality and
#: dirty per frame).  The warm-up streams the warm stream run by run
#: in two passes, so only one run's vectors and a few per-set counts
#: come on top (about 23 B/line measured in all).  Building the whole
#: stream and sorting it costs about 52 B/line, and holding every
#: whole-stream temporary at once about 140 B/line.
_WARMUP_BYTES_PER_LINE = 30
#: Floor of the Re-NUCA replay kernel over the reference loop.  Its
#: criticality feedback keeps the record loop scalar, so the floor sits
#: below the criticality-blind schemes' (2-5x measured on a busy 2-core
#: host).
_RENUCA_MIN_SPEEDUP = 1.5
#: Bound on the Re-NUCA replay's ``tracemalloc`` peak: bytes per warm
#: LLC frame plus bytes per replayed record.  The replay keeps flat
#: per-frame and per-line arrays, per-first-copy columns and one chunk
#: of lists (about 25 B/frame and 30-40 B/record measured); turning
#: every record column into a Python list costs over 200 B/record.
_RENUCA_BYTES_PER_FRAME = 32
_RENUCA_BYTES_PER_RECORD = 64
#: Bound on the stream merge plus the kernel replay's ``tracemalloc``
#: peak per merged record, on the WL3 cell of seed 9 under Re-NUCA and
#: R-NUCA.  The cell's frames are fixed, so the figure moves with what
#: the merge and the replay hold: per-frame state, per-first-copy state
#: and one window and chunk of records (138-154 B/record measured).  A
#: 5 B index entry per merged record, a concatenated copy of the first
#: copies' columns and 8-byte recency stamps cost 238-263 B/record;
#: building every copy and the whole-stream lists of the static replay
#: 324-445 B/record.
_REPLAY_BYTES_PER_RECORD = 175
#: Most Re-NUCA's merge + replay peak per merged record may grow from
#: half of ``_KERNEL_INSTRUCTIONS`` to all of it.  The per-frame state is
#: fixed and the per-record state grows with the stream, so the figure
#: falls with the budget unless some pass builds stream-long transients.
_BUDGET_GROWTH = 1.1
#: Bound on the bytes each merged record adds to the merge + replay peak
#: from half of ``_KERNEL_INSTRUCTIONS`` to all of it, under Re-NUCA and
#: R-NUCA: ``(peak - half peak) / (records - half records)``.  The
#: per-frame state cancels out, so the figure is what the merge and the
#: replay hold per record.  Windowed, only per-first-copy state grows
#: with the stream (41-42 B per merged record measured); a whole-stream
#: index and its sort cost 68-83.
_MARGINAL_BYTES_PER_RECORD = 55


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
    """The array warm-up: >= 10x the object-graph warm-up, in bounded memory.

    Both build the warm LLC of the 16-core WL1 mix under Re-NUCA (the
    costliest scheme to warm: criticality draws and TLB mapping bits) on
    a fresh controller; stage 1 is memoised outside the timed region.
    One more array warm-up runs under ``tracemalloc`` for its peak
    working memory.
    """
    config = baseline_config()
    stage1 = Stage1Cache()
    workload = make_workloads(num_cores=16, seed=1)[0]
    results = [
        stage1.get(app, config, seed=1, n_instructions=_INSTRUCTIONS)
        for app in workload.apps
    ]

    def fresh_llc():
        mesh = Mesh(config.noc)
        wear = WearTracker(config.num_banks)
        return NucaLLC(config, make_policy("Re-NUCA", config, mesh, wear),
                       mesh, MainMemory(config.memory), wear)

    def measure(warm_fn):
        best = float("inf")
        for _ in range(3):
            llc = fresh_llc()
            t0 = time.perf_counter()
            warm_fn(llc, workload, config, results, seed=1)
            best = min(best, time.perf_counter() - t0)
        return best, int(llc.wear.total_writes())

    array_s, lines = measure(_warm_arrays)
    prefill_s, prefill_lines = measure(_warm_llc)
    assert lines == prefill_lines
    llc = fresh_llc()
    gc.collect()
    tracemalloc.start()
    try:
        _warm_arrays(llc, workload, config, results, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    per_line = peak / lines
    speedup = prefill_s / array_s
    print(f"\nwarm-up: {lines} lines, array {array_s:.3f}s "
          f"({lines / array_s / 1e6:.2f} Mlines/s), prefill_many "
          f"{prefill_s:.3f}s, speedup {speedup:.1f}x, peak "
          f"{peak / 1e6:.1f} MB ({per_line:.1f} B/line, bound "
          f"{_WARMUP_BYTES_PER_LINE})")
    _record("array_warmup", count=lines, seconds=array_s, unit="lines",
            details={"prefill_seconds": prefill_s,
                     "speedup": round(speedup, 3),
                     "peak_mb": round(peak / 1e6, 2),
                     "bytes_per_line": round(per_line, 1)})
    assert speedup >= _WARMUP_MIN_SPEEDUP, (
        f"array warm-up is only {speedup:.1f}x the object-graph warm-up "
        f"(floor {_WARMUP_MIN_SPEEDUP}x)"
    )
    assert per_line <= _WARMUP_BYTES_PER_LINE, (
        f"array warm-up peaked at {per_line:.1f} B per warm line, over "
        f"its {_WARMUP_BYTES_PER_LINE} B bound"
    )


def test_bench_renuca_replay():
    """Re-NUCA replay: >= 1.5x the reference loop, in bounded memory.

    The cell is the 16-core WL3 mix of seed 9, the kind of cell the
    end-to-end ``sweep-long`` workload runs.  Only the measured loop is
    timed (fresh ``prepare_replay`` per measurement), as ``run_workload``
    runs it.  One more kernel replay runs under ``tracemalloc`` for its
    peak working memory.
    """
    config = baseline_config()
    stage1 = Stage1Cache()
    workload = make_workloads(num_cores=16, seed=9)[2]
    for app in workload.apps:
        stage1.get(app, config, seed=9, n_instructions=_KERNEL_INSTRUCTIONS)

    def prepare(use_kernel):
        return prepare_replay(
            workload, "Re-NUCA", config, seed=9,
            n_instructions=_KERNEL_INSTRUCTIONS, stage1=stage1,
            use_kernel=use_kernel,
        )

    def kernel(prep):
        kernel_replay(
            prep.llc, prep.merged, state=prep.state, cpts=prep.cpts,
            threshold=prep.threshold, block_cycles=prep.block_cycles,
        )

    def reference(prep):
        _replay_reference(
            prep.llc, prep.merged, cpts=prep.cpts, threshold=prep.threshold,
            block_cycles=prep.block_cycles,
        )

    def measure(replay_fn, use_kernel):
        """Best replay seconds of three."""
        best = float("inf")
        for _ in range(3):
            prep = prepare(use_kernel)
            t0 = time.perf_counter()
            replay_fn(prep)
            best = min(best, time.perf_counter() - t0)
        return best

    kernel_s = measure(kernel, True)
    reference_s = measure(reference, False)
    prep = prepare(True)
    records = prep.merged.total
    frames = prep.state.tags.size
    gc.collect()
    tracemalloc.start()
    try:
        kernel(prep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = (
        _RENUCA_BYTES_PER_FRAME * frames + _RENUCA_BYTES_PER_RECORD * records
    )
    speedup = reference_s / kernel_s
    print(f"\nRe-NUCA replay: {records} records in {kernel_s:.3f}s "
          f"({records / kernel_s / 1e6:.2f} Mrec/s), reference "
          f"{reference_s:.3f}s, speedup {speedup:.2f}x, peak "
          f"{peak / 1e6:.1f} MB (bound {bound / 1e6:.1f} MB for "
          f"{frames} frames)")
    _record("renuca_replay", count=records, seconds=kernel_s, unit="records",
            details={"reference_seconds": reference_s,
                     "speedup": round(speedup, 3),
                     "peak_mb": round(peak / 1e6, 2)})
    assert speedup >= _RENUCA_MIN_SPEEDUP, (
        f"Re-NUCA replay kernel is only {speedup:.2f}x the reference loop "
        f"(floor {_RENUCA_MIN_SPEEDUP}x)"
    )
    assert peak <= bound, (
        f"Re-NUCA replay peaked at {peak / 1e6:.1f} MB, over its "
        f"{bound / 1e6:.1f} MB bound"
    )


@pytest.fixture(scope="module")
def wl3_stage1():
    """Stage 1 of the WL3 mix of seed 9, shared by the memory benches."""
    config = baseline_config()
    stage1 = Stage1Cache()
    workload = make_workloads(num_cores=16, seed=9)[2]
    for app in workload.apps:
        stage1.get(app, config, seed=9, n_instructions=_KERNEL_INSTRUCTIONS)
    return workload, stage1


def _merge_and_replay_peak(workload, stage1, scheme, budget):
    """Merge plus kernel replay of one WL3 cell under ``tracemalloc``.

    Stage 1 and the warm-up run outside.  Returns the merged stream, the
    traced peak and the (traced) wall seconds.
    """
    prep = prepare_replay(
        workload, scheme, baseline_config(), seed=9,
        n_instructions=budget, stage1=stage1, use_kernel=True,
    )
    prep.merged = None
    gc.collect()
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        merged = _merge_streams(prep.results1)
        kernel_replay(
            prep.llc, merged, state=prep.state, cpts=prep.cpts,
            threshold=prep.threshold, block_cycles=prep.block_cycles,
        )
        seconds = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return merged, peak, seconds


@pytest.mark.parametrize("scheme", ["Re-NUCA", "R-NUCA"])
def test_bench_replay_memory(wl3_stage1, scheme):
    """Stream merge plus kernel replay in bounded memory per merged record.

    The cell is the WL3 mix of seed 9 that ``test_bench_renuca_replay``
    replays.  Stage 1 and the warm-up run outside; the merge of the
    cores' streams and the kernel replay of the merged stream run under
    ``tracemalloc`` (so the recorded time includes its overhead).  The
    cell is also replayed at half the budget: the bytes each extra
    merged record adds to the peak are bounded, as is (under Re-NUCA)
    the growth of the peak per record.  Both would give way if some
    pass held stream-long state on top of the per-first-copy state.
    """
    workload, stage1 = wl3_stage1
    merged, peak, seconds = _merge_and_replay_peak(
        workload, stage1, scheme, _KERNEL_INSTRUCTIONS
    )
    records = merged.total
    per_record = peak / records
    half, half_peak, _ = _merge_and_replay_peak(
        workload, stage1, scheme, _KERNEL_INSTRUCTIONS // 2
    )
    half_per_record = half_peak / half.total
    marginal = (peak - half_peak) / (records - half.total)
    print(f"\n{scheme} merge + replay: {records} merged records "
          f"({merged.measured} measured), peak {peak / 1e6:.1f} MB "
          f"({per_record:.0f} B/record, bound {_REPLAY_BYTES_PER_RECORD}); "
          f"at half the budget {half.total} merged records, peak "
          f"{half_peak / 1e6:.1f} MB ({half_per_record:.0f} B/record); "
          f"{marginal:.1f} B per extra merged record, bound "
          f"{_MARGINAL_BYTES_PER_RECORD}")
    _record(f"replay_memory_{scheme.replace('-', '').lower()}", count=records,
            seconds=seconds, unit="records",
            details={"peak_mb": round(peak / 1e6, 2),
                     "bytes_per_record": round(per_record, 1),
                     "marginal_bytes_per_record": round(marginal, 1),
                     "traced": True})
    assert per_record <= _REPLAY_BYTES_PER_RECORD, (
        f"{scheme} merge + replay peaked at {per_record:.0f} B per merged "
        f"record, over its {_REPLAY_BYTES_PER_RECORD} B bound"
    )
    assert marginal <= _MARGINAL_BYTES_PER_RECORD, (
        f"{scheme} merge + replay peak grew by {marginal:.1f} B per merged "
        f"record from {_KERNEL_INSTRUCTIONS // 2} to {_KERNEL_INSTRUCTIONS} "
        f"instructions/core, over its {_MARGINAL_BYTES_PER_RECORD} B bound"
    )
    if scheme != "Re-NUCA":
        return
    assert per_record <= _BUDGET_GROWTH * half_per_record, (
        f"Re-NUCA merge + replay peaked at {per_record:.0f} B per merged "
        f"record at {_KERNEL_INSTRUCTIONS} instructions/core, over "
        f"{_BUDGET_GROWTH}x its {half_per_record:.0f} B at half the budget"
    )
