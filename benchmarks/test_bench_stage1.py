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
every characterisation pays one of them, and every calibrated app one
(its single cache walk).

A third bench times base-CPI calibration
(:func:`repro.sim.calibrate.calibrated_base_cpi`) on its two-phase path
— one cache walk per app, re-timed per probe — against the probe loop
that runs a full ``AppSimulator.run`` per probe, memo cleared before
each measurement.

Set ``REPRO_BENCH_RECORD=<path>`` to append the measurements to a
trajectory file via :mod:`repro.obs.bench` (the committed
``BENCH_throughput.json`` holds the historical points).
"""

import os
import time

from repro.config import baseline_config
from repro.cpu.core import AppSimulator
from repro.cpu.kernel import warm_caches
from repro.sim import calibrate
from repro.trace.synthetic import warm_sets

_APP = "milc"
_SEED = 9
#: Budget the >= 2x floor is calibrated to (the sweep-scale default).
_INSTRUCTIONS = 150_000
_MIN_SPEEDUP = 2.0
#: Floor of the closed-form warm-up over the line-by-line warm-up.
_WARMUP_MIN_SPEEDUP = 3.0
#: Apps calibrated by the calibration bench, and its floor.
_CALIBRATION_APPS = ("milc", "mcf", "namd")
_CALIBRATION_MIN_SPEEDUP = 2.0


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


def _full_run_probe(app, config, seed, n):
    """Calibration probe as one whole ``AppSimulator.run`` per base CPI."""

    def probe(base_cpi):
        result = AppSimulator(app, config, seed=seed, base_cpi=base_cpi).run(n)
        return result.cycles, result.instructions

    return probe


def test_bench_calibration(monkeypatch):
    """Two-phase calibration must beat one full run per probe by >= 2x."""
    config = baseline_config()

    def measure():
        best = float("inf")
        for _ in range(3):
            calibrate.clear_cache()
            t0 = time.perf_counter()
            cpis = [calibrate.calibrated_base_cpi(app, config, seed=_SEED)
                    for app in _CALIBRATION_APPS]
            best = min(best, time.perf_counter() - t0)
        calibrate.clear_cache()
        return best, cpis

    two_phase_s, fast = measure()
    with monkeypatch.context() as m:
        m.setattr(calibrate, "_probe", _full_run_probe)
        full_run_s, ref = measure()
    speedup = full_run_s / two_phase_s
    probes = len(_CALIBRATION_APPS) * calibrate.CALIBRATION_STEPS
    print(f"\ncalibration: {len(_CALIBRATION_APPS)} apps, {probes} probes, "
          f"two-phase {two_phase_s:.3f}s, full runs {full_run_s:.3f}s, "
          f"speedup {speedup:.2f}x")

    out = os.environ.get("REPRO_BENCH_RECORD")
    if out:
        from repro.obs.bench import append_bench_point, throughput_point

        append_bench_point(out, throughput_point(
            "stage1_calibration",
            count=probes * calibrate.CALIBRATION_INSTRUCTIONS,
            seconds=two_phase_s, unit="instructions",
            details={"apps": len(_CALIBRATION_APPS),
                     "reference_seconds": full_run_s,
                     "speedup": round(speedup, 3)},
        ))

    assert fast == ref
    assert speedup >= _CALIBRATION_MIN_SPEEDUP, (
        f"two-phase calibration is only {speedup:.2f}x the full-run probe "
        f"loop (floor {_CALIBRATION_MIN_SPEEDUP}x)"
    )
