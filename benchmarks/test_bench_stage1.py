"""Stage-1 characterisation-kernel benchmark (true timing bench).

Times the vectorized stage-1 kernel (:mod:`repro.cpu.kernel`) against
the reference object-graph loop (:meth:`~repro.cpu.core.AppSimulator.run`
with ``use_kernel=False``) over the same app, configuration and seed.
A fresh simulator is built per measurement — the run mutates the warmed
caches — and the whole characterisation (trace synthesis + hot loop) is
timed, which is what sweeps actually pay per stage-1 miss.

The floor is calibrated to ``_INSTRUCTIONS``: the kernel pays fixed
per-run costs (warm-up, numpy meter reduction), so its margin grows
with the budget and dips below 2x only at toy budgets.

A second bench times the kernel's closed-form warm-up
(:func:`repro.cpu.kernel.warm_caches`) against the line-by-line
reference warm-up (``AppSimulator._warm_caches``) on fresh simulators;
every characterisation and calibration probe pays one of them.

Set ``REPRO_BENCH_RECORD=<path>`` to append the measurements to a
trajectory file via :mod:`repro.obs.bench` (the committed
``BENCH_throughput.json`` holds the historical points).
"""

import os
import time

from repro.config import baseline_config
from repro.cpu.core import AppSimulator
from repro.cpu.kernel import warm_caches
from repro.trace.synthetic import warm_sets

_APP = "milc"
_SEED = 9
#: Budget the >= 2x floor is calibrated to (the sweep-scale default).
_INSTRUCTIONS = 150_000
_MIN_SPEEDUP = 2.0
#: Floor of the closed-form warm-up over the line-by-line warm-up.
_WARMUP_MIN_SPEEDUP = 3.0


def _measure(use_kernel: bool):
    """Best-of-3 wall time of one full characterisation run."""
    best = float("inf")
    result = None
    for _ in range(3):
        sim = AppSimulator(_APP, baseline_config(), seed=_SEED)
        t0 = time.perf_counter()
        result = sim.run(_INSTRUCTIONS, use_kernel=use_kernel)
        best = min(best, time.perf_counter() - t0)
    return best, result


def test_bench_stage1_kernel_vs_reference():
    """The stage-1 kernel must beat the reference loop by >= 2x."""
    kernel_s, kres = _measure(True)
    reference_s, rres = _measure(False)
    speedup = reference_s / kernel_s
    print(f"\nstage-1 kernel: {kres.instructions} instructions in "
          f"{kernel_s:.3f}s ({kres.instructions / kernel_s / 1e6:.2f} "
          f"Minstr/s), reference {reference_s:.3f}s "
          f"({rres.instructions / reference_s / 1e6:.2f} Minstr/s), "
          f"speedup {speedup:.2f}x")

    out = os.environ.get("REPRO_BENCH_RECORD")
    if out:
        from repro.obs.bench import append_bench_point, stage1_point

        append_bench_point(out, stage1_point(
            instructions=kres.instructions,
            kernel_seconds=kernel_s,
            reference_seconds=reference_s,
        ))

    assert kres.instructions == rres.instructions
    assert speedup >= _MIN_SPEEDUP, (
        f"stage-1 kernel is only {speedup:.2f}x the reference loop "
        f"(floor {_MIN_SPEEDUP}x at {_INSTRUCTIONS} instructions)"
    )


def test_bench_stage1_warmup():
    """The closed-form warm-up must beat the line-by-line one by >= 3x."""

    def measure(warm):
        best = float("inf")
        for _ in range(5):
            sim = AppSimulator(_APP, baseline_config(), seed=_SEED)
            t0 = time.perf_counter()
            warm(sim)
            best = min(best, time.perf_counter() - t0)
        return best, sim

    closed_s, fast = measure(lambda sim: warm_caches(sim, 0))
    reference_s, ref = measure(lambda sim: sim._warm_caches(0))
    sets = warm_sets(fast.params, l2_lines=fast.config.l2.num_lines)
    lines = len(sets["l1"]) + sum(
        len(block) for block in (*sets["l2_clean"], sets["l2_dirty_window"], *sets["l3"])
    )
    for a, b in zip((fast.l1d, fast.l2, fast.l3), (ref.l1d, ref.l2, ref.l3)):
        assert a.resident_lines() == b.resident_lines()
    speedup = reference_s / closed_s
    print(f"\nstage-1 warm-up: {lines} lines, closed form {closed_s * 1e3:.1f} ms, "
          f"line by line {reference_s * 1e3:.1f} ms, speedup {speedup:.1f}x")

    out = os.environ.get("REPRO_BENCH_RECORD")
    if out:
        from repro.obs.bench import append_bench_point, throughput_point

        append_bench_point(out, throughput_point(
            "stage1_warmup", count=lines, seconds=closed_s, unit="lines",
            details={"reference_seconds": reference_s,
                     "speedup": round(speedup, 3)},
        ))

    assert speedup >= _WARMUP_MIN_SPEEDUP, (
        f"closed-form warm-up is only {speedup:.1f}x the line-by-line "
        f"warm-up (floor {_WARMUP_MIN_SPEEDUP}x)"
    )
