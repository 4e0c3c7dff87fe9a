"""Vectorized stage-1 characterisation kernel: equivalence + gate tests.

The kernel's contract is *field-for-field identical*
:class:`~repro.cpu.core.Stage1Result`s to the reference object-graph
path for every supported configuration (see ``docs/PERFORMANCE.md``
"Stage-1 kernel & store").  The equivalence class below drives both
paths over every application profile and compares every result field
recursively — the full L3 stream arrays (values *and* dtypes), the
criticality meters and all nested statistics dataclasses.  The gate
class covers the ``use_kernel`` tri-state, which mirrors stage 2's.
The warm-up classes check the kernel's closed-form warm-up
(:func:`~repro.cpu.kernel.warm_caches`) against its oracle,
``AppSimulator._warm_caches``.
"""

import dataclasses

import numpy as np
import pytest

from repro.cache.cache import CacheStats
from repro.common.errors import SimulationError
from repro.config import baseline_config, sensitivity_l3_1m
from repro.cpu.core import AppSimulator
from repro.cpu.kernel import kernel_supported, warm_caches
from repro.sim import runner
from repro.trace import synthetic
from repro.trace.profiles import ALL_APPS

INSTR = 6_000
SEEDS = (3, 11)
APPS = tuple(profile.name for profile in ALL_APPS)


def assert_identical(a, b, path=""):
    """Recursive field-for-field comparison (arrays bit-exact + dtype)."""
    if isinstance(a, np.ndarray):
        assert isinstance(b, np.ndarray), path
        assert a.dtype == b.dtype, f"{path}: {a.dtype} != {b.dtype}"
        assert np.array_equal(a, b), path
    elif dataclasses.is_dataclass(a) and not isinstance(a, type):
        for field in dataclasses.fields(a):
            assert_identical(
                getattr(a, field.name),
                getattr(b, field.name),
                f"{path}.{field.name}",
            )
    else:
        assert a == b, f"{path}: {a!r} != {b!r}"


@pytest.fixture(scope="module")
def pair():
    """Memoised (reference, kernel) Stage1Result pairs per (app, seed)."""
    cache: dict[tuple, tuple] = {}

    def get(app, seed):
        key = (app, seed)
        if key not in cache:
            cache[key] = tuple(
                AppSimulator(app, baseline_config(), seed=seed).run(
                    INSTR, use_kernel=use_kernel
                )
                for use_kernel in (False, True)
            )
        return cache[key]

    return get


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("app", APPS)
class TestStage1KernelEquivalence:
    def test_every_field_identical(self, pair, app, seed):
        ref, fast = pair(app, seed)
        assert_identical(ref, fast, app)

    def test_headline_metrics(self, pair, app, seed):
        ref, fast = pair(app, seed)
        assert ref.instructions == fast.instructions
        assert ref.cycles == fast.cycles
        assert ref.ipc == fast.ipc
        assert ref.wpki == fast.wpki
        assert ref.mpki == fast.mpki
        assert len(ref.stream) == len(fast.stream)


class TestStage1KernelGate:
    def _degraded(self):
        """A simulator the kernel cannot drive (rotated L3 sets)."""
        sim = AppSimulator("milc", baseline_config(), seed=3)
        sim.l3._rotation = 1
        return sim

    def test_supported_on_pristine_sim(self):
        assert kernel_supported(AppSimulator("milc", baseline_config(), seed=3))

    def test_degraded_cache_not_supported(self):
        assert not kernel_supported(self._degraded())

    def test_forced_kernel_on_degraded_sim_raises(self):
        with pytest.raises(SimulationError, match="kernel cannot drive"):
            self._degraded().run(INSTR, use_kernel=True)

    def test_auto_engagement_and_env_override(self, monkeypatch):
        calls = []
        import repro.cpu.kernel as kernel_mod

        real = kernel_mod.characterize

        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(kernel_mod, "characterize", spy)
        AppSimulator("milc", baseline_config(), seed=3).run(INSTR)
        assert len(calls) == 1
        # An unsupported simulator silently falls back to the reference.
        self._degraded().run(INSTR)
        assert len(calls) == 1
        # REPRO_KERNEL=0 disables auto-engagement globally ...
        monkeypatch.setenv("REPRO_KERNEL", "0")
        AppSimulator("milc", baseline_config(), seed=3).run(INSTR)
        assert len(calls) == 1
        # ... but a forced kernel still runs.
        AppSimulator("milc", baseline_config(), seed=3).run(
            INSTR, use_kernel=True
        )
        assert len(calls) == 2

    def test_use_kernel_false_pins_reference(self, monkeypatch):
        calls = []
        import repro.cpu.kernel as kernel_mod

        monkeypatch.setattr(
            kernel_mod, "characterize",
            lambda *a, **k: calls.append(1),
        )
        AppSimulator("milc", baseline_config(), seed=3).run(
            INSTR, use_kernel=False
        )
        assert calls == []

    def test_budget_must_be_positive(self):
        with pytest.raises(SimulationError, match="positive"):
            AppSimulator("milc", baseline_config(), seed=3).run(
                0, use_kernel=True
            )


def _resident(sim):
    """Per cache, per set: ``(line, payload)`` items in LRU -> MRU order."""
    return [
        [list(ways.items()) for ways in cache._array.set_views()]
        for cache in (sim.l1d, sim.l2, sim.l3)
    ]


WARM_CONFIGS = {"baseline": baseline_config, "l3-1m": sensitivity_l3_1m}


@pytest.mark.parametrize(
    "base_line", [0, runner._core_base(5)], ids=["core0", "core5"]
)
@pytest.mark.parametrize("config", sorted(WARM_CONFIGS))
@pytest.mark.parametrize("app", APPS)
class TestClosedFormWarmup:
    def test_matches_reference_warmup(self, app, config, base_line):
        ref = AppSimulator(app, WARM_CONFIGS[config](), seed=3)
        ref._warm_caches(base_line)
        fast = AppSimulator(app, WARM_CONFIGS[config](), seed=3)
        warm_caches(fast, base_line)
        assert _resident(fast) == _resident(ref)
        for cache in (fast.l1d, fast.l2, fast.l3):
            assert cache.stats == CacheStats()
        # Every line owns its payload (the kernel mutates them in place).
        payloads = [p for c in _resident(fast) for ways in c for _, p in ways]
        assert len({id(p) for p in payloads}) == len(payloads)


class TestClosedFormWarmupGuards:
    def test_l3_self_evicts_on_small_config(self):
        sim = AppSimulator("omnetpp", sensitivity_l3_1m(), seed=3)
        sets = synthetic.warm_sets(sim.params, l2_lines=sim.config.l2.num_lines)
        warm_caches(sim, 0)
        assert sim.l3.occupancy() < sum(len(block) for block in sets["l3"])

    def test_repeated_line_raises(self, monkeypatch):
        real = synthetic.warm_sets

        def overlapping(params, **kwargs):
            sets = real(params, **kwargs)
            sets["l3"] = [*sets["l3"], sets["l3"][0]]
            return sets

        monkeypatch.setattr(synthetic, "warm_sets", overlapping)
        sim = AppSimulator("milc", baseline_config(), seed=3)
        with pytest.raises(SimulationError, match="repeats a line"):
            warm_caches(sim, 0)

    def test_non_empty_cache_raises(self):
        sim = AppSimulator("milc", baseline_config(), seed=3)
        sim.l2.allocate(7)
        with pytest.raises(SimulationError, match="empty cache"):
            warm_caches(sim, 0)
