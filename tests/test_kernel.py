"""Vectorized stage-2 replay kernel: equivalence + engine unit tests.

The kernel's contract is *field-for-field identical* results to the
reference object-graph path for every supported scheme (see
``docs/PERFORMANCE.md``).  The equivalence class below drives both
paths from the same stage-1 memo and compares every result field,
including the float accumulations; the unit classes cover the array
engine's batched prefill, the closed-form array warm-up against the
object-graph warm-up it replaces, the support gate with its named
fallback reasons and the ``use_kernel`` tri-state.  Re-NUCA gets two
more: its CPT object state after a replay, and a Hypothesis
differential test over drawn TLB, predictor, NoC and L3 settings; the
static and Naive replays get a differential test over drawn NoC and L3
settings.  Both differential tests stream the records in small odd
chunks.

An oracle keeps the whole-stream warm-up the kernel replaced, which
concatenates the warm stream (:func:`_warm_state_oracle`); the streamed
warm-up is checked against it on drawn inputs.  The kernel keeps
Re-NUCA's Mapping Bits per line and no TLB state: the warm frames'
critical flags must hold the reference TLBs' set bits, and
:class:`TestKernelKeepsNoTlbs` checks that the TLBs cannot be read
after a kernel replay.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cache.lru import lru_survivors
from repro.common.errors import ReproError, SimulationError
from repro.config import CacheConfig, FaultConfig, baseline_config, scaled_config
from repro.core.renuca import ReNucaPolicy
from repro.faults.injector import FaultInjector
from repro.mem.model import MainMemory
from repro.noc.mesh import Mesh
from repro.nuca import NucaLLC, kernel, make_policy
from repro.nuca.kernel import (
    FALLBACK_REASONS,
    ArrayBanks,
    kernel_fallback_reason,
    _ordered_sum,
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


#: 8 banks of 4 sets x 2 ways: small enough to fill a set by hand.
TINY = dataclasses.replace(
    CFG8, l3_bank=CacheConfig(4 * 2 * 64, 2, 100, name="L3-bank")
)


class TestWarmStateScatter:
    """How warm_state scatters a stream into the frames (S-NUCA on TINY)."""

    @staticmethod
    def _warm(lines):
        llc = _fresh_llc("S-NUCA", TINY)
        state = warm_state(llc, lambda: [(0, lines, None)])
        return llc, state

    @staticmethod
    def _gset(state, line):
        bank = line & (state.num_banks - 1)
        return bank * state.num_sets + (
            (line >> state.index_shift) & (state.num_sets - 1)
        )

    def test_scatters_in_order(self):
        _, state = self._warm([0x100, 0x200, 0x101])
        home, other = self._gset(state, 0x100), self._gset(state, 0x101)
        assert self._gset(state, 0x200) == home != other
        # LRU -> MRU within the set follows input order.
        assert state.tags[home].tolist() == [0x100, 0x200]
        assert state.tags[other].tolist() == [0x101, -1]
        assert not state.dirty.any()
        occ = [0] * len(state.occ)
        occ[home], occ[other] = 2, 1
        assert state.occ.tolist() == occ
        assert state.clock == 3
        assert state.index == {}

    def test_interleaved_sets_match_grouped(self):
        _, a = self._warm([0x100, 0x101, 0x200, 0x102])
        _, b = self._warm([0x100, 0x200, 0x101, 0x102])
        assert np.array_equal(a.tags, b.tags)
        assert np.array_equal(a.occ, b.occ)

    def test_full_set_keeps_its_last_installs(self):
        llc, state = self._warm([0x100, 0x200, 0x300])
        home = self._gset(state, 0x100)
        assert self._gset(state, 0x300) == home
        assert state.tags[home].tolist() == [0x200, 0x300]
        assert state.occ[home] == 2
        # Warm-up wear counts every fill, the evicted one too.
        assert llc.wear.bank_writes[0x100 & 7] == 3

    def test_duplicate_line_raises(self):
        with pytest.raises(SimulationError, match="repeats a line"):
            self._warm([7, 7])


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


def _mapped_lines(tlb) -> set[int]:
    """The lines whose Mapping Bit is set in ``tlb``, resident or backed."""
    return {
        (page << tlb._line_shift) + i
        for page in [*tlb.resident_pages(), *tlb._backing]
        for mbv in [tlb.mbv_of_page(page)]
        for i in range(tlb.lines_per_page)
        if mbv >> i & 1
    }


def _critical_lines(state, core) -> set[int]:
    """The lines in ``core``'s critical frames of a warm state."""
    return set(state.tags[state.critical & (state.owner == core)].tolist())


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

    def test_policy_metadata_matches_prefill(self, warmed):
        ref, fast, state, _ = warmed
        if isinstance(ref.policy, NaivePolicy):
            assert fast.policy._directory == ref.policy._directory
        if isinstance(ref.policy, ReNucaPolicy):
            # The kernel takes each line's starting Mapping Bit from the
            # critical flag of its warm frame.
            mapped = 0
            for core, tlb in enumerate(ref.policy.tlbs):
                lines = _mapped_lines(tlb)
                assert lines == _critical_lines(state, core), core
                mapped += len(lines)
            assert mapped > 0

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


def _drawn_runs(runs, seed):
    """Warm runs ``(core, lines, critical)`` for drawn ``(core, count)`` pairs.

    Each core draws distinct lines from its own four-page region, and a
    core's later runs continue its draw, so interleaved runs such as
    ``[0, 1, 0]`` share an address range.
    """
    rng = np.random.default_rng(seed)
    pools = {core: (core << 12) + rng.permutation(256) for core, _ in runs}
    drawn = dict.fromkeys(pools, 0)
    out = []
    for core, count in runs:
        lines = pools[core][drawn[core]:drawn[core] + count]
        drawn[core] += count
        out.append((core, lines, rng.random(count) < 0.5))
    return out


def _l3_config(l3_sets, l3_assoc):
    return dataclasses.replace(
        CFG8,
        l3_bank=CacheConfig(l3_sets * l3_assoc * 64, l3_assoc, 100, name="L3-bank"),
    )


class TestWarmStateDifferential:
    """warm_state against the reference warm-up on drawn geometries and streams.

    The runs come from :func:`_drawn_runs`: interleaved runs of one core
    share an address range, so the duplicate check reads them again and
    sorts them together.  Small banks make sets overflow, so LRU decides
    which installs survive.
    """

    @given(
        scheme=st.sampled_from(SCHEMES),
        l3_sets=st.sampled_from([1, 2, 4, 8]),
        l3_assoc=st.sampled_from([1, 2, 4]),
        runs=st.lists(
            st.tuples(st.integers(0, 7), st.integers(1, 40)),
            min_size=1, max_size=5,
        ),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_prefill(self, scheme, l3_sets, l3_assoc, runs, seed):
        config = _l3_config(l3_sets, l3_assoc)
        runs = _drawn_runs(runs, seed)
        ref = _fresh_llc(scheme, config)
        for core, lines, critical in runs:
            ref.prefill_many(core, lines.tolist(), critical=critical.tolist())
        fast = _fresh_llc(scheme, config)
        state = warm_state(fast, lambda: runs)
        assert _array_snapshot(state) == _bank_snapshot(ref)
        assert np.array_equal(fast.wear.bank_writes, ref.wear.bank_writes)
        if isinstance(ref.policy, NaivePolicy):
            assert fast.policy._directory == ref.policy._directory
        if isinstance(ref.policy, ReNucaPolicy):
            for core, tlb in enumerate(ref.policy.tlbs):
                assert _mapped_lines(tlb) == _critical_lines(state, core), core


def _warm_state_oracle(llc, lines, cores, critical) -> ArrayBanks:
    """The whole-stream warm-up that :func:`warm_state` streams.

    Concatenated stream in, one duplicate-check sort and one
    :func:`~repro.cache.lru.lru_survivors` over every install.
    """
    lines = np.asarray(lines, dtype=np.int64)
    cores = np.asarray(cores, dtype=np.int16)
    critical = np.asarray(critical, dtype=bool)
    n = len(lines)
    ordered = np.sort(lines)
    if (ordered[1:] == ordered[:-1]).any():
        raise SimulationError("warm stream repeats a line")
    state = ArrayBanks.for_llc(llc)
    policy = llc.policy
    num_sets = state.num_sets
    bounds = np.concatenate(([0], np.flatnonzero(cores[1:] != cores[:-1]) + 1, [n]))
    runs = list(zip(bounds[:-1].tolist(), bounds[1:].tolist())) if n else []
    gset = np.empty(n, dtype=np.int32)
    wear = np.zeros(llc.wear.num_banks, dtype=np.int64)
    for lo, hi in runs:
        run = lines[lo:hi]
        bank = kernel._fill_banks(policy, lo, cores[lo:hi], run, critical[lo:hi])
        wear += np.bincount(bank, minlength=len(wear))
        gset[lo:hi] = bank * num_sets + ((run >> state.index_shift) & (num_sets - 1))
    keep = lru_survivors(gset, state.assoc)
    occ = np.minimum(np.bincount(gset, minlength=len(state.occ)), state.assoc)
    frames = np.arange(state.assoc) < occ[:, None]
    kept = lines[keep]
    state.tags[frames] = kept
    state.owner[frames] = cores[keep]
    state.critical[frames] = critical[keep]
    state.occ[:] = occ
    state.clock = len(keep)
    llc.wear.add_writes(wear)
    if type(policy) is NaivePolicy:
        policy._directory.update(zip(kept.tolist(), (gset[keep] // num_sets).tolist()))
    return state


class TestStreamedWarmStateMatchesOracle:
    """The streamed warm-up equals the whole-stream oracle, field for field.

    Drawn runs cover interleaved cores (``[0, 1, 0]``), one-line runs and
    sets left under-filled (large sets for few lines) or overflowing
    (small banks), under all five schemes.
    """

    @given(
        scheme=st.sampled_from(SCHEMES),
        l3_sets=st.sampled_from([1, 2, 8, 32]),
        l3_assoc=st.sampled_from([1, 2, 4, 8]),
        runs=st.lists(
            st.tuples(st.integers(0, 7), st.integers(1, 40)),
            min_size=1, max_size=6,
        ),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    @example(scheme="Re-NUCA", l3_sets=32, l3_assoc=8,
             runs=[(0, 1), (1, 30), (0, 12)], seed=1)
    @example(scheme="Naive", l3_sets=1, l3_assoc=1,
             runs=[(0, 40), (1, 1), (0, 40)], seed=2)
    def test_matches_whole_stream_oracle(self, scheme, l3_sets, l3_assoc, runs, seed):
        config = _l3_config(l3_sets, l3_assoc)
        runs = _drawn_runs(runs, seed)
        oracle_llc = _fresh_llc(scheme, config)
        lines, critical = (np.concatenate(c) for c in zip(*[r[1:] for r in runs]))
        cores = np.concatenate([np.full(len(r[1]), r[0]) for r in runs])
        oracle = _warm_state_oracle(oracle_llc, lines, cores, critical)
        llc = _fresh_llc(scheme, config)
        state = warm_state(llc, lambda: runs)
        for name in ("tags", "owner", "critical", "dirty", "occ"):
            assert np.array_equal(getattr(state, name), getattr(oracle, name)), name
        assert state.clock == oracle.clock
        assert np.array_equal(llc.wear.bank_writes, oracle_llc.wear.bank_writes)
        if isinstance(llc.policy, NaivePolicy):
            assert list(llc.policy._directory.items()) == list(
                oracle_llc.policy._directory.items()
            )


class TestWarmStateGuards:
    def test_repeated_line_raises(self):
        llc = _fresh_llc("S-NUCA", CFG8)
        with pytest.raises(SimulationError, match="repeats a line"):
            warm_state(llc, lambda: [(0, [5, 9], None), (1, [5], None)])

    def test_line_repeated_within_a_run_raises(self):
        llc = _fresh_llc("Re-NUCA", CFG8)
        with pytest.raises(SimulationError, match="repeats a line"):
            warm_state(llc, lambda: [(0, [3, 5], None), (1, [8, 9, 8], None)])
        assert llc.wear.total_writes() == 0

    def test_line_repeated_across_overlapping_runs_raises(self):
        llc = _fresh_llc("S-NUCA", CFG8)
        with pytest.raises(SimulationError, match="repeats a line"):
            warm_state(llc, lambda: [(0, [3, 9], None), (1, [5, 9], None)])
        assert llc.wear.total_writes() == 0
        state = warm_state(
            _fresh_llc("S-NUCA", CFG8), lambda: [(0, [3, 9], None), (1, [5, 7], None)]
        )
        assert int(state.occ.sum()) == 4

    def test_line_repeated_across_two_cores_overlapping_ranges_raises(self):
        # Core 1's run spans both of core 0's, and its line 30 is also in
        # core 0's second run: the three runs are checked together.
        runs = [(0, [10, 40], None), (1, [20, 30, 50], None), (0, [60, 30], None)]
        llc = _fresh_llc("Re-NUCA", CFG8)
        with pytest.raises(SimulationError, match="repeats a line"):
            warm_state(llc, lambda: runs)
        assert llc.wear.total_writes() == 0
        assert not any(tlb.resident_pages() for tlb in llc.policy.tlbs)
        # A chain of overlapping ranges without a shared line passes.
        state = warm_state(
            _fresh_llc("Re-NUCA", CFG8),
            lambda: [(0, [10, 40], None), (1, [20, 30, 50], None), (0, [60, 35], None)],
        )
        assert int(state.occ.sum()) == 7


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


def _renuca_object_state(prep):
    """Per-core CPT table and statistics of a replayed Re-NUCA run."""
    return [(list(cpt.snapshot().items()), cpt.stats) for cpt in prep.cpts]


SMALL_CPT = dataclasses.replace(
    CFG8, criticality=dataclasses.replace(CFG8.criticality, table_entries=16)
)


#: 256-line pages: MBVs wider than 64 bits.
WIDE_MBV = dataclasses.replace(
    CFG8, tlb=dataclasses.replace(CFG8.tlb, page_bytes=16384)
)


@pytest.mark.parametrize(
    "config", [CFG8, SMALL_CPT, WIDE_MBV], ids=["default", "cpt16", "page16k"]
)
@pytest.mark.parametrize("seed", SEEDS)
class TestReNucaObjectState:
    """The kernel's inlined CPT leaves the reference's object state.

    The kernel keeps no TLB state (:class:`TestKernelKeepsNoTlbs`); the
    page geometries still vary the reference's TLBs under it.
    """

    def test_tlb_and_cpt_state_identical(self, stage1, config, seed):
        runs = []
        for use_kernel in (False, True):
            prep = prepare_replay(
                MIX8, "Re-NUCA", config, seed=seed, n_instructions=INSTR,
                stage1=stage1, use_kernel=use_kernel,
            )
            kwargs = dict(cpts=prep.cpts, threshold=prep.threshold,
                          block_cycles=prep.block_cycles)
            if use_kernel:
                runner.kernel_replay(prep.llc, prep.merged, state=prep.state,
                                     **kwargs)
            else:
                runner._replay_reference(prep.llc, prep.merged, **kwargs)
            runs.append((prep.path, _renuca_object_state(prep)))
        (ref_path, ref_state), (fast_path, fast_state) = runs
        assert (ref_path, fast_path) == ("reference.pinned", "kernel")
        assert fast_state == ref_state
        # The rare path is exercised: CPT evictions under the 16-entry
        # table.
        if config is SMALL_CPT:
            assert sum(stats.evictions for _, stats in ref_state) > 0


class TestKernelKeepsNoTlbs:
    """The kernel keeps Re-NUCA's Mapping Bits per line, in no TLB."""

    @staticmethod
    def _replayed(stage1):
        prep = prepare_replay(MIX8, "Re-NUCA", CFG8, seed=3, n_instructions=INSTR,
                              stage1=stage1, use_kernel=True)
        runner.kernel_replay(prep.llc, prep.merged, state=prep.state,
                             cpts=prep.cpts, threshold=prep.threshold,
                             block_cycles=prep.block_cycles)
        return prep.policy

    def test_tlbs_raise_after_a_kernel_replay(self, stage1):
        policy = self._replayed(stage1)
        with pytest.raises(SimulationError, match="reference replay path"):
            policy.tlbs
        # The storage overhead is structure, not TLB content.
        assert policy.storage_overhead_bytes() == 8 * 1024

    def test_reset_makes_fresh_tlbs(self, stage1):
        policy = self._replayed(stage1)
        policy.reset()
        assert len(policy.tlbs) == CFG8.num_cores
        assert not any(
            t.resident_pages() or t._backing or t.stats.lookups for t in policy.tlbs
        )


class TestFrameViews:
    def test_stamps_start_at_zero_in_32_bits(self):
        state = ArrayBanks(2, 4, 2, 0)
        tags, stamps, dirty, occ = kernel._frame_views(state, 2**31 - 2)
        assert tags is state._tag_frames and dirty is state._dirty_frames
        assert occ is state._occ_sets
        assert stamps.typecode == "i" and list(stamps) == [0] * 16

    def test_replay_overflowing_the_stamps_raises(self):
        # The last record stamps its own count, which must fit an int32.
        with pytest.raises(SimulationError, match="32-bit"):
            kernel._frame_views(ArrayBanks(2, 4, 2, 0), 2**31 - 1)


class TestOrderedSum:
    def test_matches_a_running_accumulation(self):
        # Builtin sum() of floats is compensated since Python 3.12 and
        # returns 1.0 here; the reference's running += gives 0.0.
        values = [1e16, 1.0, -1e16]
        running = 0.0
        for value in values:
            running += value
        assert _ordered_sum(0.0, np.array(values)) == running == 0.0

    def test_starts_from_the_running_total(self):
        assert _ordered_sum(1e16, np.array([1.0, -1e16])) == 0.0
        assert _ordered_sum(2.5, np.array([])) == 2.5


class _BaseStage1(Stage1Cache):
    """Serves every configuration the stage-1 results of ``base``.

    The differential test below varies stage-2 knobs that stage 1 also
    reads (L3 geometry, hop latency, predictor settings); both replay
    paths get the same inputs either way, and stage 1 runs once.
    """

    def __init__(self, base, memo):
        super().__init__()
        self.base = base
        self.memo = memo

    def get(self, app, config, **kwargs):
        return self.memo.get(app, self.base, **kwargs)


#: A small odd chunk: the differential tests' replays, kernel and
#: reference, cross many chunk boundaries.
ODD_CHUNK = 97


def _run_capturing_prep(config, workload, scheme, seed, stage1, use_kernel):
    """run_workload plus its replay inputs."""
    captured = {}
    real = runner.prepare_replay

    def prepare(*args, **kwargs):
        prep = real(*args, **kwargs)
        captured["prep"] = prep
        return prep

    with mock.patch.object(runner, "prepare_replay", prepare), \
            mock.patch.object(kernel, "_CHUNK", ODD_CHUNK):
        result = run_workload(
            workload, scheme, config, seed=seed, n_instructions=INSTR,
            stage1=stage1, use_kernel=use_kernel,
        )
    return captured["prep"], result


def _run_capturing_state(config, workload, seed, stage1, use_kernel):
    """run_workload plus the replay's CPT state."""
    prep, result = _run_capturing_prep(
        config, workload, "Re-NUCA", seed, stage1, use_kernel
    )
    return prep, result, _renuca_object_state(prep)


def _assert_same_run(ref_prep, ref, fast_prep, fast):
    """Paths, every result field, LLC/memory stats and DRAM open rows agree."""
    assert (ref_prep.path, fast_prep.path) == ("reference.pinned", "kernel")
    for field in dataclasses.fields(ref):
        a, b = getattr(ref, field.name), getattr(fast, field.name)
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, b), field.name
        else:
            assert a == b, field.name
    for name in ("llc", "memory"):
        a, b = getattr(ref_prep, name).stats, getattr(fast_prep, name).stats
        assert dataclasses.asdict(a) == dataclasses.asdict(b), name
    assert ref_prep.memory._open_rows == fast_prep.memory._open_rows


class TestReNucaDifferential:
    """Kernel vs reference Re-NUCA replay across drawn stage-2 configs.

    A shrunken L3 bank forces what the default geometry never reaches:
    evictions of lines the replay touched, dirty write-backs to memory,
    and re-allocations of write-back misses.  Small predictor tables
    take the ``OrderedDict`` path with evictions.  The TLB geometry is
    drawn too (small TLBs, pages of 16 to 256 lines), and no result may
    depend on it: the kernel keeps no TLB.
    """

    @given(
        apps=st.permutations(MIX8.apps),
        seed=st.sampled_from(SEEDS),
        tlb_sets=st.sampled_from([1, 2, 4, 8]),
        tlb_assoc=st.sampled_from([1, 2, 4, 8]),
        page_bytes=st.sampled_from([1024, 4096, 16384]),
        table_entries=st.one_of(st.integers(1, 16), st.just(4096)),
        threshold_percent=st.floats(0.5, 100.0),
        block_cycles=st.floats(1.0, 300.0),
        hop_cycles=st.integers(0, 32),
        l3_sets=st.sampled_from([4, 8, 16]),
        l3_assoc=st.sampled_from([2, 4, 8]),
    )
    @settings(max_examples=12, deadline=None)
    def test_kernel_matches_reference(
        self, stage1, apps, seed, tlb_sets, tlb_assoc, page_bytes,
        table_entries, threshold_percent, block_cycles, hop_cycles,
        l3_sets, l3_assoc,
    ):
        config = dataclasses.replace(
            CFG8,
            l3_bank=CacheConfig(
                l3_sets * l3_assoc * 64, l3_assoc, 100, name="L3-bank"
            ),
            noc=dataclasses.replace(CFG8.noc, hop_cycles=hop_cycles),
            tlb=dataclasses.replace(
                CFG8.tlb, entries=tlb_sets * tlb_assoc, assoc=tlb_assoc,
                page_bytes=page_bytes,
            ),
            criticality=dataclasses.replace(
                CFG8.criticality,
                table_entries=table_entries,
                threshold_percent=threshold_percent,
                block_cycles=block_cycles,
            ),
        )
        workload = Workload("kdiff8", tuple(apps))
        memo = _BaseStage1(CFG8, stage1)
        ref_prep, ref, ref_state = _run_capturing_state(
            config, workload, seed, memo, False
        )
        fast_prep, fast, fast_state = _run_capturing_state(
            config, workload, seed, memo, True
        )
        _assert_same_run(ref_prep, ref, fast_prep, fast)
        assert fast_state == ref_state
        # The shrunken L3 evicts dirty lines the replay wrote.
        assert ref_prep.llc.stats.memory_writes > 0


class TestBlindDifferential:
    """Kernel vs reference static and Naive replays across drawn configs.

    The criticality-blind schemes get the draw space of
    :class:`TestReNucaDifferential` that reaches them: a shrunken L3
    bank forces evictions of lines the replay touched, dirty write-backs
    to memory and re-allocations of write-back misses, and the hop
    latency varies every NoC table.  Both paths stream the records in
    chunks of ``ODD_CHUNK``.
    """

    @given(
        scheme=st.sampled_from(("S-NUCA", "R-NUCA", "Private", "Naive")),
        apps=st.permutations(MIX8.apps),
        seed=st.sampled_from(SEEDS),
        hop_cycles=st.integers(0, 32),
        l3_sets=st.sampled_from([4, 8, 16]),
        l3_assoc=st.sampled_from([2, 4, 8]),
    )
    @settings(max_examples=16, deadline=None)
    def test_kernel_matches_reference(
        self, stage1, scheme, apps, seed, hop_cycles, l3_sets, l3_assoc,
    ):
        config = dataclasses.replace(
            CFG8,
            l3_bank=CacheConfig(
                l3_sets * l3_assoc * 64, l3_assoc, 100, name="L3-bank"
            ),
            noc=dataclasses.replace(CFG8.noc, hop_cycles=hop_cycles),
        )
        workload = Workload("kdiff8", tuple(apps))
        memo = _BaseStage1(CFG8, stage1)
        ref_prep, ref = _run_capturing_prep(
            config, workload, scheme, seed, memo, False
        )
        fast_prep, fast = _run_capturing_prep(
            config, workload, scheme, seed, memo, True
        )
        _assert_same_run(ref_prep, ref, fast_prep, fast)
        if scheme == "Naive":
            assert fast_prep.policy._directory == ref_prep.policy._directory
        # The shrunken L3 evicts dirty lines the replay wrote.
        assert ref_prep.llc.stats.memory_writes > 0
