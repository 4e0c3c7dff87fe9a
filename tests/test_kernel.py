"""Vectorized stage-2 replay kernel: equivalence + engine unit tests.

The kernel's contract is *field-for-field identical* results to the
reference object-graph path for every supported scheme (see
``docs/PERFORMANCE.md``).  The equivalence class below drives both
paths from the same stage-1 memo and compares every result field,
including the float accumulations; the unit classes cover the array
engine's batched prefill, the closed-form array warm-up against the
object-graph warm-up it replaces, the support gate with its named
fallback reasons and the ``use_kernel`` tri-state.
"""

import dataclasses

import numpy as np
import pytest

from repro.common.errors import ReproError, SimulationError
from repro.config import FaultConfig, baseline_config, scaled_config
from repro.core.renuca import ReNucaPolicy
from repro.faults.injector import FaultInjector
from repro.mem.model import MainMemory
from repro.noc.mesh import Mesh
from repro.nuca import NucaLLC, make_policy
from repro.nuca.kernel import (
    FALLBACK_REASONS,
    ArrayBanks,
    kernel_fallback_reason,
    kernel_supported,
    warm_state,
)
from repro.nuca.naive import NaivePolicy
from repro.obs.spans import SpanRecorder
from repro.reram.wear import WearTracker
from repro.sim import runner
from repro.sim.calibrate import config_signature
from repro.sim.runner import Stage1Cache, prepare_replay, run_workload
from repro.telemetry import StatsRegistry, Telemetry
from repro.trace.workloads import Workload, make_workloads

INSTR = 6_000
SCHEMES = ("S-NUCA", "Private", "R-NUCA", "Naive", "Re-NUCA")
SEEDS = (3, 11)

CFG8 = scaled_config(baseline_config(), cores=8)
MIX8 = Workload(
    "kmix8",
    ("mcf", "lbm", "omnetpp", "xalancbmk",
     "milc", "sjeng", "povray", "hmmer"),
)


@pytest.fixture(scope="module")
def stage1():
    return Stage1Cache()


@pytest.fixture(scope="module")
def pair():
    """Memoised (reference, kernel) result pairs per (scheme, seed)."""
    stage1 = Stage1Cache()
    cache: dict[tuple, tuple] = {}

    def get(scheme, seed):
        key = (scheme, seed)
        if key not in cache:
            cache[key] = tuple(
                run_workload(
                    MIX8, scheme, CFG8, seed=seed, n_instructions=INSTR,
                    stage1=stage1, use_kernel=use_kernel,
                )
                for use_kernel in (False, True)
            )
        return cache[key]

    return get


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("scheme", SCHEMES)
class TestKernelEquivalence:
    def test_headline_metrics(self, pair, scheme, seed):
        ref, fast = pair(scheme, seed)
        assert np.array_equal(ref.bank_writes, fast.bank_writes)
        assert ref.noc_total_hops == fast.noc_total_hops
        assert ref.llc_fetch_hit_rate == fast.llc_fetch_hit_rate
        assert np.array_equal(ref.per_core_ipc, fast.per_core_ipc)

    def test_every_field_identical(self, pair, scheme, seed):
        ref, fast = pair(scheme, seed)
        for field in dataclasses.fields(ref):
            a = getattr(ref, field.name)
            b = getattr(fast, field.name)
            if isinstance(a, np.ndarray):
                assert np.array_equal(a, b), field.name
            else:
                assert a == b, field.name


class TestArrayBanks:
    def _state(self):
        return ArrayBanks(num_banks=2, num_sets=4, assoc=2, index_shift=6)

    def test_prefill_scatters_in_order(self):
        state = self._state()
        lines = np.array([0x100, 0x200, 0x300], dtype=np.int64)
        gsets = np.array([0, 0, 5], dtype=np.int64)
        state.prefill_many(lines, gsets, dirty=np.array([True, False, True]))
        assert state.tags[0].tolist() == [0x100, 0x200]
        assert state.tags[5].tolist() == [0x300, -1]
        # LRU -> MRU within the set follows input order.
        assert state.age[0, 0] < state.age[0, 1]
        assert state.dirty[0].tolist() == [True, False]
        assert state.occ.tolist() == [2, 0, 0, 0, 0, 1, 0, 0]
        assert state.index == {0x100: 0, 0x200: 1, 0x300: 10}

    def test_prefill_unsorted_batch_matches_sorted(self):
        a, b = self._state(), self._state()
        lines = np.array([1, 2, 3, 4], dtype=np.int64)
        gsets = np.array([0, 1, 0, 2], dtype=np.int64)
        a.prefill_many(lines, gsets)
        order = np.argsort(gsets, kind="stable")
        b.prefill_many(lines[order], gsets[order])
        assert np.array_equal(a.tags, b.tags)
        assert np.array_equal(a.occ, b.occ)
        assert a.index == b.index

    def test_prefill_overflow_raises(self):
        state = self._state()
        lines = np.arange(3, dtype=np.int64)
        gsets = np.zeros(3, dtype=np.int64)
        with pytest.raises(SimulationError, match="overflows"):
            state.prefill_many(lines, gsets)

    def test_prefill_duplicate_line_raises(self):
        state = self._state()
        lines = np.array([7, 7], dtype=np.int64)
        gsets = np.array([0, 1], dtype=np.int64)
        with pytest.raises(SimulationError, match="duplicate"):
            state.prefill_many(lines, gsets)

    def test_prefill_index_false_leaves_memo_empty(self):
        state = self._state()
        state.prefill_many(
            np.array([7, 7], dtype=np.int64),
            np.array([0, 1], dtype=np.int64),
            index=False,
        )
        assert state.index == {}
        assert state.occ.tolist()[:2] == [1, 1]


def _fresh_llc(scheme, config, *, telemetry=None, faults=None,
               track_links=False, track_lines=False):
    mesh = Mesh(config.noc, track_links=track_links)
    wear = WearTracker(config.num_banks, track_lines=track_lines)
    policy = make_policy(scheme, config, mesh, wear)
    return NucaLLC(config, policy, mesh, MainMemory(config.memory), wear,
                   faults=faults, telemetry=telemetry)


def _bank_snapshot(llc):
    """Per-global-set ``[(line, owner, critical, dirty), ...]``, LRU first."""
    sets = []
    for bank in llc.banks:
        for set_idx in range(bank.cache.num_sets):
            sets.append([
                (line, payload[1][0], payload[1][1], payload[0])
                for line, payload in bank.cache._array.iter_set(set_idx)
            ])
    return sets


def _array_snapshot(state):
    return [
        [
            (int(state.tags[gs, w]), int(state.owner[gs, w]),
             bool(state.critical[gs, w]), bool(state.dirty[gs, w]))
            for w in range(int(state.occ[gs]))
        ]
        for gs in range(state.num_banks * state.num_sets)
    ]


@pytest.fixture(scope="module")
def warm_pairs(stage1):
    """Memoised (reference LLC, array-warmed LLC, state, stage-1) per case."""
    cache: dict[tuple, tuple] = {}

    def get(workload, config, scheme, seed):
        key = (workload.name, scheme, seed)
        if key not in cache:
            results = [
                stage1.get(app, config, seed=seed, n_instructions=INSTR)
                for app in workload.apps
            ]
            ref = _fresh_llc(scheme, config)
            runner._warm_llc(ref, workload, config, results, seed=seed)
            fast = _fresh_llc(scheme, config)
            state = runner._warm_arrays(
                fast, workload, config, results, seed=seed
            )
            cache[key] = ref, fast, state, results
        return cache[key]

    return get


#: The 8-core mix under every scheme x seed, plus one 16-core WL1 case.
WARM_CASES = [
    (MIX8, CFG8, scheme, seed) for scheme in SCHEMES for seed in SEEDS
] + [(make_workloads(num_cores=16, seed=1)[0], baseline_config(), "Re-NUCA", 3)]


@pytest.mark.parametrize(
    "workload,config,scheme,seed", WARM_CASES,
    ids=[f"{wl.name}-{scheme}-{seed}" for wl, _c, scheme, seed in WARM_CASES],
)
class TestArrayWarmState:
    """The closed-form array warm-up equals the object-graph oracle."""

    @pytest.fixture
    def warmed(self, warm_pairs, workload, config, scheme, seed):
        return warm_pairs(workload, config, scheme, seed)

    def test_bank_content_matches_prefill(self, warmed):
        ref, fast, state, _ = warmed
        assert _array_snapshot(state) == _bank_snapshot(ref)
        # The kernel path never fills the object graph.
        assert fast.occupancy() == 0
        assert not state.dirty.any()

    def test_warmup_wear_matches_prefill(self, warmed):
        ref, fast, _, _ = warmed
        assert ref.wear.total_writes() > 0
        assert np.array_equal(ref.wear.bank_writes, fast.wear.bank_writes)

    def test_policy_metadata_matches_prefill(self, warmed, workload, config,
                                             seed):
        ref, fast, _, results = warmed
        if isinstance(ref.policy, NaivePolicy):
            assert fast.policy._directory == ref.policy._directory
        if isinstance(ref.policy, ReNucaPolicy):
            mapped_pages = 0
            for core, (tlb_ref, tlb_fast) in enumerate(
                zip(ref.policy.tlbs, fast.policy.tlbs)
            ):
                assert tlb_fast.resident_pages() == tlb_ref.resident_pages()
                assert tlb_fast._backing == tlb_ref._backing
                pages = {
                    tlb_ref.page_of(line)
                    for c, lines, _ in runner._warm_blocks(
                        ref, workload, config, results, seed=seed
                    )
                    if c == core
                    for line in lines.tolist()
                }
                for page in pages:
                    assert tlb_fast.mbv_of_page(page) == tlb_ref.mbv_of_page(page)
                mapped_pages += sum(1 for p in pages if tlb_ref.mbv_of_page(p))
            assert mapped_pages > 0

    def test_warm_streams_are_duplicate_free(self, warmed, workload, config,
                                             seed):
        ref, _, _, results = warmed
        per_core: dict[int, list] = {}
        for core, lines, _ in runner._warm_blocks(
            ref, workload, config, results, seed=seed
        ):
            per_core.setdefault(core, []).append(lines)
        for core, blocks in per_core.items():
            lines = np.concatenate(blocks)
            assert len(np.unique(lines)) == len(lines), core


class TestWarmStateGuards:
    def test_repeated_line_raises(self):
        llc = _fresh_llc("S-NUCA", CFG8)
        with pytest.raises(SimulationError, match="repeats a line"):
            warm_state(llc, [5, 9, 5], [0, 0, 1], [False] * 3)

    def test_tlb_needs_fresh_state(self):
        tlb = _fresh_llc("Re-NUCA", CFG8).policy.tlbs[0]
        tlb.set_mapping_bit(64, True)
        with pytest.raises(SimulationError, match="fresh TLB"):
            tlb.load_warm_state([64], [64])


class TestKernelGate:
    def test_supported_on_pristine_run(self, stage1):
        prep = prepare_replay(
            MIX8, "S-NUCA", CFG8, seed=3, n_instructions=INSTR, stage1=stage1
        )
        assert kernel_supported(prep.llc)
        assert prep.path == "kernel"
        assert prep.state is not None and prep.llc.occupancy() == 0

    @pytest.mark.parametrize("reason,build", [
        ("telemetry", lambda: _fresh_llc("S-NUCA", CFG8, telemetry=Telemetry())),
        ("telemetry", lambda: _fresh_llc("S-NUCA", CFG8, track_links=True)),
        ("faults", lambda: _fresh_llc("S-NUCA", CFG8, faults=FaultInjector(
            CFG8, FaultConfig(age_fraction=0.5), seed=3))),
        ("faults", lambda: _fresh_llc("S-NUCA", CFG8, track_lines=True)),
        ("policy", lambda: _fresh_llc("D-NUCA", CFG8)),
        ("cache-mode", lambda: _fresh_llc(
            "S-NUCA", dataclasses.replace(CFG8, l3_replacement="srrip"))),
        ("cache-mode", lambda: _fresh_llc(
            "S-NUCA", dataclasses.replace(CFG8, l3_way_limit=8))),
    ])
    def test_every_refusal_has_a_named_reason(self, reason, build):
        llc = build()
        assert not kernel_supported(llc)
        assert kernel_fallback_reason(llc) == reason
        assert reason in FALLBACK_REASONS
        assert runner._replay_path(None, llc) == f"reference.{reason}"

    def test_rotated_sets_are_a_cache_mode_refusal(self):
        llc = _fresh_llc("S-NUCA", CFG8)
        llc.banks[3].cache.rotate_sets()
        assert kernel_fallback_reason(llc) == "cache-mode"

    def test_env_and_pinned_reasons(self, monkeypatch):
        llc = _fresh_llc("S-NUCA", CFG8)
        assert runner._replay_path(None, llc) == "kernel"
        assert runner._replay_path(False, llc) == "reference.pinned"
        monkeypatch.setenv("REPRO_KERNEL", "0")
        assert runner._replay_path(None, llc) == "reference.env"
        assert runner._replay_path(True, llc) == "kernel"
        assert {"env", "pinned"} <= set(FALLBACK_REASONS)

    def test_accounting_counts_the_path(self, stage1, monkeypatch):
        registry = StatsRegistry()
        run_workload(MIX8, "S-NUCA", CFG8, seed=3, n_instructions=INSTR,
                     stage1=stage1, accounting=registry)
        monkeypatch.setenv("REPRO_KERNEL", "0")
        run_workload(MIX8, "S-NUCA", CFG8, seed=3, n_instructions=INSTR,
                     stage1=stage1, accounting=registry)
        snap = registry.snapshot()
        assert snap["jobs.replay.kernel"] == 1
        assert snap["jobs.replay.reference.env"] == 1
        assert "jobs.stage1.hits" in snap

    def test_measure_span_records_the_path(self, stage1):
        recorder = SpanRecorder()
        run_workload(MIX8, "S-NUCA", CFG8, seed=3, n_instructions=INSTR,
                     stage1=stage1, spans=recorder)
        run_workload(MIX8, "S-NUCA", CFG8, seed=3, n_instructions=INSTR,
                     stage1=stage1, spans=recorder, use_kernel=False)
        paths = [s.attrs["path"] for s in recorder.spans if s.name == "measure"]
        assert paths == ["kernel", "reference.pinned"]

    def test_unsupported_policy_rejected(self, stage1):
        with pytest.raises(ReproError, match="kernel cannot drive"):
            run_workload(
                MIX8, "D-NUCA", CFG8, seed=3, n_instructions=INSTR,
                stage1=stage1, use_kernel=True,
            )

    def test_telemetry_run_rejects_forced_kernel(self, stage1):
        with pytest.raises(ReproError, match="kernel cannot drive"):
            run_workload(
                MIX8, "S-NUCA", CFG8, seed=3, n_instructions=INSTR,
                stage1=stage1, telemetry=Telemetry(), use_kernel=True,
            )

    def test_auto_engagement_and_env_override(self, stage1, monkeypatch):
        calls = []
        import repro.sim.runner as runner

        real = runner.kernel_replay

        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(runner, "kernel_replay", spy)
        run_workload(MIX8, "S-NUCA", CFG8, seed=3, n_instructions=INSTR,
                     stage1=stage1)
        assert len(calls) == 1
        monkeypatch.setenv("REPRO_KERNEL", "0")
        run_workload(MIX8, "S-NUCA", CFG8, seed=3, n_instructions=INSTR,
                     stage1=stage1)
        assert len(calls) == 1


class TestConfigSignatureMemo:
    def test_memoised_on_the_instance(self):
        cfg = baseline_config()
        sig = config_signature(cfg)
        assert cfg.__dict__["_signature"] is sig
        assert config_signature(cfg) is sig

    def test_equal_configs_equal_signatures(self):
        assert config_signature(baseline_config()) == config_signature(
            baseline_config()
        )
