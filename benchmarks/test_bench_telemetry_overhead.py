"""Telemetry overhead guard: disabled telemetry must stay free.

The observability contract (docs/OBSERVABILITY.md) promises that a run
without a telemetry handle executes the pre-telemetry hot loop — the
instrumentation is `is None` checks only.  This bench holds that line
two ways:

* a relative guard: the telemetry-default path (``telemetry=None``)
  must stay within 5 % of an all-features-off ``Telemetry()`` handle,
  whose only extra cost is the same guard pattern — if the two diverge,
  a hot-path guard grew teeth;
* printed absolute numbers for eyeballing against the pre-telemetry
  baseline recorded below.

Pre-telemetry baseline, measured back-to-back against the commit
before the telemetry subsystem landed (stage-2 Re-NUCA replay, 60 000
instructions/core, warm stage-1, best of 9): **3.767 s** pre vs
**3.740 s** post on the reference machine, identical IPC — inside the
5 % budget.  CI machines vary too much for an absolute assert, so the
numbers live here and in the PR record instead.
"""

from __future__ import annotations

import time

from repro.config import baseline_config
from repro.sim.runner import Stage1Cache, run_workload
from repro.telemetry import Telemetry
from repro.trace.workloads import make_workloads

_INSTRUCTIONS = 60_000
_ROUNDS = 3


def _best_of(fn, rounds: int = _ROUNDS) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_bench_telemetry_disabled_overhead(benchmark):
    """`telemetry=None` replay speed vs an all-off Telemetry handle."""
    config = baseline_config()
    stage1 = Stage1Cache()
    workload = make_workloads(num_cores=16, seed=9)[0]
    # Warm the stage-1 cache outside the timed region: the comparison
    # must time only the stage-2 replay the telemetry guards live in.
    for app in workload.apps:
        stage1.get(app, config, seed=9, n_instructions=_INSTRUCTIONS)

    # Both sides pin the reference replay: the guards live in its hot
    # loop, while ``telemetry=None`` alone would take the replay kernel.
    def run_plain():
        return run_workload(
            workload, "Re-NUCA", config, seed=9,
            n_instructions=_INSTRUCTIONS, stage1=stage1, use_kernel=False,
        )

    def run_all_off():
        return run_workload(
            workload, "Re-NUCA", config, seed=9,
            n_instructions=_INSTRUCTIONS, stage1=stage1,
            telemetry=Telemetry(),
        )

    plain = _best_of(run_plain)
    all_off = _best_of(run_all_off)
    result = benchmark.pedantic(run_plain, rounds=_ROUNDS, iterations=1)
    print(f"\ntelemetry=None:    {plain:6.3f} s (best of {_ROUNDS})"
          f"\nTelemetry() (off): {all_off:6.3f} s (best of {_ROUNDS})"
          f"\npre-telemetry baseline on the reference machine: 3.767 s")
    assert result.ipc > 0
    # 5% margin plus a small absolute floor so sub-second runs (low
    # REPRO_INSTRUCTIONS) don't trip on timer noise.
    assert all_off <= plain * 1.05 + 0.05, (
        f"registry-only telemetry costs {all_off / plain - 1:.1%} "
        "over the disabled path (contract: within 5%)"
    )
