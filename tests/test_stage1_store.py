"""On-disk stage-1 store: round-trips, invalidation, signature guard.

Three contracts (see ``docs/PERFORMANCE.md`` "Stage-1 kernel & store"):

* **Bit-exactness**: a stored :class:`~repro.cpu.core.Stage1Result`
  round-trips field-for-field identical, arrays dtype-preserving.
* **Warm tier**: a warm store skips the calibration probes entirely
  (zero stage-1 simulations).  Miss rules shared with the result cache
  (stale, truncated, unreadable entries) live in
  ``tests/test_content_store.py``.
* **Signature completeness**: the content address covers *every*
  configuration field stage 1 reads and *none* it ignores, so sweeps
  over stage-2 knobs (NUCA topology, ReRAM, TLB) share one
  characterisation while any stage-1-relevant change invalidates it.
"""

import dataclasses

import pytest

from repro.config import (
    CacheConfig,
    CoreConfig,
    CriticalityConfig,
    MemoryConfig,
    NocConfig,
    ReRamConfig,
    TlbConfig,
    baseline_config,
)
from repro.cpu.core import AppSimulator
from repro.sim.calibrate import config_signature
from repro.sim.runner import Stage1Cache
from repro.sim.stage1_store import Stage1Store
from repro.telemetry import Telemetry
from tests.test_stage1_kernel import assert_identical

APP = "milc"
SEED = 3
INSTR = 4_000
CFG = baseline_config()


def _simulate():
    return AppSimulator(APP, CFG, seed=SEED, base_cpi=1.0).run(INSTR)


class TestStage1StoreRoundTrip:
    def test_round_trip_bit_exact(self, tmp_path):
        store = Stage1Store(tmp_path)
        result = _simulate()
        store.put(result, CFG, seed=SEED, n_instructions=INSTR)
        loaded = store.get(APP, CFG, seed=SEED, n_instructions=INSTR)
        assert loaded is not None
        assert_identical(result, loaded)
        assert len(store) == 1


class TestStage1CacheStoreTier:
    def test_warm_store_skips_simulation_and_calibration(
        self, tmp_path, monkeypatch
    ):
        Stage1Cache(store=tmp_path).get(
            APP, CFG, seed=SEED, n_instructions=INSTR
        )
        # A fresh in-memory cache over the same store must never reach
        # the calibration probes or the simulator.
        import repro.sim.runner as runner

        def boom(*args, **kwargs):
            raise AssertionError("warm store must not calibrate")

        monkeypatch.setattr(runner, "calibrated_base_cpi", boom)
        monkeypatch.setattr(
            runner.AppSimulator, "run",
            lambda *a, **k: (_ for _ in ()).throw(
                AssertionError("warm store must not simulate")
            ),
        )
        warm = Stage1Cache(store=tmp_path)
        result = warm.get(APP, CFG, seed=SEED, n_instructions=INSTR)
        assert result.app == APP
        assert warm.store.hits == 1
        assert warm.store.misses == 0

    def test_warm_result_identical_to_fresh(self, tmp_path):
        fresh = Stage1Cache(store=tmp_path).get(
            APP, CFG, seed=SEED, n_instructions=INSTR
        )
        warm = Stage1Cache(store=tmp_path).get(
            APP, CFG, seed=SEED, n_instructions=INSTR
        )
        assert_identical(fresh, warm)

    def test_telemetry_counters(self, tmp_path):
        telemetry = Telemetry()
        cache = Stage1Cache(store=tmp_path)
        cache.bind_telemetry(telemetry.registry)
        cache.get(APP, CFG, seed=SEED, n_instructions=INSTR)  # cold
        cache.get(APP, CFG, seed=SEED, n_instructions=INSTR)  # LRU hit
        jobs = telemetry.registry.subtree("jobs")
        assert jobs["jobs.stage1.hits"] == 1
        assert jobs["jobs.stage1.misses"] == 1
        assert jobs["jobs.stage1.store.misses"] == 1
        assert jobs["jobs.stage1.store.writes"] == 1
        assert jobs["jobs.stage1.store.hits"] == 0
        assert jobs["jobs.stage1.store.corrupt"] == 0


# ---------------------------------------------------------------------------
# Signature-completeness guard: one perturbation per stage-1-relevant
# field (the signature must change) and one per stage-2-only knob (it
# must not).  Perturbations go through the real constructors, so every
# variant is a valid SystemConfig.

def _base(**kw):
    return dataclasses.replace(baseline_config(), **kw)


SENSITIVE = {
    "num_cores": lambda: _base(
        num_cores=8, noc=NocConfig(mesh_cols=4, mesh_rows=2)
    ),
    "core.clock_hz": lambda: _base(core=CoreConfig(clock_hz=3.0e9)),
    "core.rob_entries": lambda: _base(core=CoreConfig(rob_entries=64)),
    "l1.size_bytes": lambda: _base(l1=CacheConfig(64 * 1024, 4, 2)),
    "l1.assoc": lambda: _base(l1=CacheConfig(32 * 1024, 8, 2)),
    "l1.latency": lambda: _base(l1=CacheConfig(32 * 1024, 4, 3)),
    # Line size is one global knob (all levels must agree), spanning the
    # three per-level line_bytes slots of the signature.
    "line_bytes": lambda: _base(
        l1=CacheConfig(32 * 1024, 4, 2, line_bytes=128),
        l2=CacheConfig(256 * 1024, 8, 5, line_bytes=128),
        l3_bank=CacheConfig(2 * 1024 * 1024, 16, 100, line_bytes=128),
    ),
    "l2.size_bytes": lambda: _base(l2=CacheConfig(512 * 1024, 8, 5)),
    "l2.assoc": lambda: _base(l2=CacheConfig(256 * 1024, 4, 5)),
    "l2.latency": lambda: _base(l2=CacheConfig(256 * 1024, 8, 6)),
    "l3_bank.size_bytes": lambda: _base(
        l3_bank=CacheConfig(4 * 1024 * 1024, 16, 100)
    ),
    "l3_bank.assoc": lambda: _base(
        l3_bank=CacheConfig(2 * 1024 * 1024, 8, 100)
    ),
    "l3_bank.latency": lambda: _base(
        l3_bank=CacheConfig(2 * 1024 * 1024, 16, 90)
    ),
    "noc.hop_cycles": lambda: _base(noc=NocConfig(hop_cycles=8)),
    "memory.latency_cycles": lambda: _base(
        memory=MemoryConfig(latency_cycles=300)
    ),
    "memory.row_hit_latency_cycles": lambda: _base(
        memory=MemoryConfig(row_hit_latency_cycles=90)
    ),
    "memory.bandwidth_lines_per_cycle": lambda: _base(
        memory=MemoryConfig(bandwidth_lines_per_cycle=0.4)
    ),
    "memory.lines_per_row": lambda: _base(
        memory=MemoryConfig(lines_per_row=64)
    ),
    "memory.dram_banks": lambda: _base(memory=MemoryConfig(dram_banks=32)),
    "criticality.threshold_percent": lambda: _base(
        criticality=CriticalityConfig(threshold_percent=5.0)
    ),
    "criticality.block_cycles": lambda: _base(
        criticality=CriticalityConfig(block_cycles=32.0)
    ),
    "criticality.table_entries": lambda: _base(
        criticality=CriticalityConfig(table_entries=2048)
    ),
}

INSENSITIVE = {
    "noc.mesh_shape": lambda: _base(
        noc=NocConfig(mesh_cols=8, mesh_rows=2)
    ),
    "rnuca_cluster_size": lambda: _base(rnuca_cluster_size=8),
    "naive_directory_penalty": lambda: _base(naive_directory_penalty=100),
    "l3_replacement": lambda: _base(l3_replacement="srrip"),
    "l3_way_limit": lambda: _base(l3_way_limit=8),
    "reram.cell_endurance": lambda: _base(
        reram=ReRamConfig(cell_endurance=1e9)
    ),
    "reram.write_penalty_cycles": lambda: _base(
        reram=ReRamConfig(write_penalty_cycles=32)
    ),
    "tlb.entries": lambda: _base(tlb=TlbConfig(entries=128)),
    "core.issue_width": lambda: _base(core=CoreConfig(issue_width=2)),
    "core.commit_width": lambda: _base(core=CoreConfig(commit_width=2)),
}


class TestConfigSignatureCompleteness:
    def test_signature_field_count_matches_guard(self):
        # One SENSITIVE perturbation per signature field, except the
        # global line size, whose single knob spans three per-level
        # slots: extending the signature must extend this guard too.
        assert len(config_signature(baseline_config())) == len(SENSITIVE) + 2

    @pytest.mark.parametrize("field", sorted(SENSITIVE))
    def test_stage1_relevant_field_changes_signature(self, field):
        assert config_signature(SENSITIVE[field]()) != config_signature(
            baseline_config()
        ), field

    @pytest.mark.parametrize("field", sorted(INSENSITIVE))
    def test_stage2_only_knob_keeps_signature(self, field):
        assert config_signature(INSENSITIVE[field]()) == config_signature(
            baseline_config()
        ), field

    @pytest.mark.parametrize("field", sorted(INSENSITIVE))
    def test_stage2_only_knob_shares_store_entry(self, field, tmp_path):
        store = Stage1Store(tmp_path)
        base_fp = store.fingerprint(APP, CFG, seed=SEED, n_instructions=INSTR)
        assert store.fingerprint(
            APP, INSENSITIVE[field](), seed=SEED, n_instructions=INSTR
        ) == base_fp, field

    def test_different_budget_or_seed_different_entry(self, tmp_path):
        store = Stage1Store(tmp_path)
        base = store.fingerprint(APP, CFG, seed=SEED, n_instructions=INSTR)
        assert store.fingerprint(
            APP, CFG, seed=SEED + 1, n_instructions=INSTR
        ) != base
        assert store.fingerprint(
            APP, CFG, seed=SEED, n_instructions=INSTR * 2
        ) != base
        assert store.fingerprint(
            "mcf", CFG, seed=SEED, n_instructions=INSTR
        ) != base
