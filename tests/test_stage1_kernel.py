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
``AppSimulator._warm_caches``.  The two-phase calibration classes check
one cache walk re-timed per probe (:func:`~repro.cpu.kernel.retime`)
against full reference probe runs, and which path calibration takes.
The last tests pin how the kernel gets there: the nominal L3 built
set by set on first touch, and the cyclic collector paused across the
stage-1 entry points.
"""

import dataclasses
import functools
import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cache import Cache, CacheStats
from repro.common.errors import SimulationError
from repro.config import baseline_config, sensitivity_l3_1m
from repro.cpu import core, kernel
from repro.cpu.core import AppSimulator
from repro.cpu.kernel import characterize, kernel_supported, retime, walk, warm_caches
from repro.cpu.rob import ReorderBuffer
from repro.sim import calibrate, runner
from repro.trace import synthetic
from repro.trace.generator import bundles_for_instructions
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

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_is_restored(self, enabled):
        sim = AppSimulator("milc", baseline_config(), seed=3)
        seen = []
        real = dict.update

        class Spy(dict):
            def update(self, *args):
                seen.append(gc.isenabled())
                real(self, *args)

        views = sim.l2._array.set_views()
        views[:] = [Spy() for _ in views]
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            kernel._install_lru(sim.l2, np.arange(64, dtype=np.int64))
            after = gc.isenabled()
        finally:
            (gc.enable if was else gc.disable)()
        assert after is enabled
        # Paused while the payloads are installed.
        assert seen and not any(seen)


PROBE = 4_000
CONFIGS = {"baseline": baseline_config, "l3-1m": sensitivity_l3_1m}


class TestRetimeProperty:
    @given(
        app=st.sampled_from(APPS),
        base_cpi=st.floats(calibrate.BASE_CPI_MIN, calibrate.BASE_CPI_MAX),
        seed=st.integers(0, 2**16),
        config=st.sampled_from(sorted(CONFIGS)),
    )
    @settings(max_examples=30, deadline=None)
    def test_walk_then_retime_matches_reference_run(self, app, base_cpi, seed, config):
        cfg = CONFIGS[config]()
        cache_walk = walk(AppSimulator(app, cfg, seed=seed), PROBE)
        ref = AppSimulator(app, cfg, seed=seed, base_cpi=base_cpi).run(
            PROBE, use_kernel=False
        )
        assert retime(cache_walk, base_cpi) == (ref.cycles, ref.instructions)


#: A probe long enough that the in-flight load queue's head crosses
#: thousands of loads and, on the memory-heavy app, many ROB-full stalls.
LONG_PROBE = 40_000


@pytest.mark.parametrize("base_cpi", [0.4, 1.7])
@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("app", ["zeusmp", "povray"])
def test_long_retime_matches_reference_run(monkeypatch, app, config, base_cpi):
    cfg = CONFIGS[config]()
    cache_walk = walk(AppSimulator(app, cfg, seed=5), LONG_PROBE)
    rob_full = []
    real_dispatch = ReorderBuffer.dispatch

    def counting_dispatch(self, count):
        need = min(self.dispatch_index + count - 1 - self.entries, self.dispatch_index - 1)
        if need >= self.commit_index:
            rob_full.append(1)
        return real_dispatch(self, count)

    monkeypatch.setattr(ReorderBuffer, "dispatch", counting_dispatch)
    ref = AppSimulator(app, cfg, seed=5, base_cpi=base_cpi).run(
        LONG_PROBE, use_kernel=False
    )
    assert retime(cache_walk, base_cpi) == (ref.cycles, ref.instructions)
    assert len(cache_walk.load_idx) > 5_000
    if app == "zeusmp":
        assert len(rob_full) > 100


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("app", ["zeusmp", "povray", "libquantum"])
def test_characterize_leaves_reference_cache_content(app, config):
    ref = AppSimulator(app, CONFIGS[config](), seed=4)
    ref.run(INSTR, use_kernel=False)
    fast = AppSimulator(app, CONFIGS[config](), seed=4)
    characterize(fast, INSTR)
    assert _resident(fast) == _resident(ref)


def test_walk_builds_only_the_l3_sets_it_touches():
    sim = AppSimulator("gromacs", baseline_config(), seed=3)
    cache_walk = walk(sim, 20_000)
    mask = sim.l3.num_sets - 1
    fetched = np.asarray(cache_walk.code) & (kernel.WB - 1) >= kernel.L3_HIT
    touched = {line & mask for line in cache_walk.trace["line"][fetched].tolist()}
    touched |= {line & mask for line in cache_walk.wb_line}
    views, _build = sim.l3._array.lazy_views()
    built = {s for s, ways in enumerate(views) if ways is not None}
    assert built == touched
    assert 0 < len(built) < sim.l3.num_sets // 4


class TestCollectorPausedAtEntryPoints:
    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def collector(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    @staticmethod
    def _spy_on_trace(monkeypatch):
        seen = []
        real = kernel.generate_trace

        def spy(*args, **kwargs):
            seen.append(gc.isenabled())
            return real(*args, **kwargs)

        monkeypatch.setattr(kernel, "generate_trace", spy)
        return seen

    def test_characterize(self, monkeypatch, collector):
        seen = self._spy_on_trace(monkeypatch)
        characterize(AppSimulator("milc", baseline_config(), seed=3), PROBE)
        assert seen and not any(seen)
        assert gc.isenabled() is collector

    def test_characterize_raising(self, collector):
        with pytest.raises(SimulationError, match="positive"):
            characterize(AppSimulator("milc", baseline_config(), seed=3), 0)
        assert gc.isenabled() is collector

    def test_calibration(self, monkeypatch, collector):
        seen = self._spy_on_trace(monkeypatch)
        timed = []
        real = calibrate.retime

        def spy(*args):
            timed.append(gc.isenabled())
            return real(*args)

        monkeypatch.setattr(calibrate, "retime", spy)
        calibrate.clear_cache()
        try:
            calibrate.calibrated_base_cpi(
                "milc", baseline_config(), seed=2, probe_instructions=PROBE
            )
        finally:
            calibrate.clear_cache()
        assert seen and timed and not any(seen + timed)
        assert gc.isenabled() is collector

    def test_calibration_raising(self, monkeypatch, collector):
        def boom(*args):
            raise SimulationError("retime failed")

        monkeypatch.setattr(calibrate, "retime", boom)
        calibrate.clear_cache()
        with pytest.raises(SimulationError, match="retime failed"):
            calibrate.calibrated_base_cpi(
                "milc", baseline_config(), seed=2, probe_instructions=PROBE
            )
        assert gc.isenabled() is collector


def _calibrate_both_ways(monkeypatch, app, cfg, seed, probe=PROBE):
    """``calibrated_base_cpi`` on the two-phase and the reference path."""
    calibrate.clear_cache()
    fast = calibrate.calibrated_base_cpi(app, cfg, seed=seed, probe_instructions=probe)
    calibrate.clear_cache()
    with monkeypatch.context() as m:
        m.setenv("REPRO_KERNEL", "0")
        ref = calibrate.calibrated_base_cpi(app, cfg, seed=seed, probe_instructions=probe)
    calibrate.clear_cache()
    return fast, ref


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("app", APPS)
def test_two_phase_calibration_is_bit_equal(monkeypatch, app, config):
    fast, ref = _calibrate_both_ways(monkeypatch, app, CONFIGS[config](), seed=2)
    assert fast == ref


class TestCalibrationPath:
    @pytest.fixture(autouse=True)
    def _fresh_memo(self):
        calibrate.clear_cache()
        yield
        calibrate.clear_cache()

    @staticmethod
    def _count(monkeypatch, owner, name):
        calls = []
        real = getattr(owner, name)

        @functools.wraps(real)
        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)
        return calls

    def test_kernel_path_synthesises_each_trace_once(self, monkeypatch):
        traces = self._count(monkeypatch, kernel, "generate_trace")
        monkeypatch.setattr(
            AppSimulator, "run", lambda *a, **k: pytest.fail("a full probe ran")
        )
        for app in ("milc", "namd"):
            calibrate.calibrated_base_cpi(
                app, baseline_config(), seed=2, probe_instructions=PROBE
            )
        assert len(traces) == 2

    def test_chunked_walk_synthesises_once_and_stays_bit_equal(self, monkeypatch):
        # Shrink the chunk so one probe trace spans several chunks.
        monkeypatch.setattr(core, "_CHUNK_BUNDLES", 500)
        cfg = baseline_config()
        sim = AppSimulator("lbm", cfg, seed=2)
        chunks = -(-bundles_for_instructions(sim.params, PROBE) // 500)
        assert chunks > 1
        traces = self._count(monkeypatch, kernel, "generate_trace")
        fast, ref = _calibrate_both_ways(monkeypatch, "lbm", cfg, seed=2)
        assert len(traces) == chunks
        assert fast == ref

    def test_repro_kernel_0_runs_reference_probes(self, monkeypatch):
        runs = self._count(monkeypatch, AppSimulator, "run")
        monkeypatch.setenv("REPRO_KERNEL", "0")
        calibrate.calibrated_base_cpi(
            "milc", baseline_config(), seed=2, probe_instructions=PROBE
        )
        assert len(runs) == calibrate.CALIBRATION_STEPS

    def test_unsupported_cache_runs_reference_probes(self, monkeypatch):
        # Stage-1 caches with a non-LRU policy, which the kernel rejects.
        monkeypatch.setattr(core, "Cache", functools.partial(Cache, replacement="srrip"))
        assert not kernel_supported(AppSimulator("milc", baseline_config(), seed=2))
        runs = self._count(monkeypatch, AppSimulator, "run")
        walks = self._count(monkeypatch, calibrate, "walk")
        calibrate.calibrated_base_cpi(
            "milc", baseline_config(), seed=2, probe_instructions=PROBE
        )
        assert len(runs) == calibrate.CALIBRATION_STEPS
        assert walks == []
