"""Warm-up prefill semantics (stage 1 and stage 2)."""

import pytest

from repro.config import baseline_config, sensitivity_l3_1m
from repro.cpu.core import AppSimulator
from repro.cpu.kernel import warm_caches
from repro.mem.model import MainMemory
from repro.noc.mesh import Mesh
from repro.nuca import NucaLLC, make_policy
from repro.reram.wear import WearTracker
from repro.sim import runner as runner_mod
from repro.sim.runner import Stage1Cache
from repro.trace.profiles import get_profile
from repro.trace.synthetic import derive_params, warm_sets
from repro.trace.workloads import Workload


@pytest.fixture(params=["reference", "closed-form"])
def stage1_warmup(request):
    """Both stage-1 warm-ups: ``(warm(sim, base_line), use_kernel)``."""
    if request.param == "reference":
        return (lambda sim, base_line: sim._warm_caches(base_line)), False
    return warm_caches, True


class TestStage1Warmup:
    def test_caches_warm_before_measurement(self, stage1_warmup):
        warm, _ = stage1_warmup
        sim = AppSimulator("omnetpp", baseline_config(), seed=3)
        warm(sim, 0)
        sets = warm_sets(sim.params, l2_lines=sim.config.l2.num_lines)
        # L1 holds the hot tier.
        assert all(sim.l1d.contains(line) for line in sets["l1"])
        # L3 holds the full resident working set.
        for block in sets["l3"]:
            assert all(sim.l3.contains(line) for line in block)
        # Statistics were reset: the prefill is invisible.
        assert sim.l3.stats.fills == 0
        assert sim.l1d.stats.accesses == 0

    def test_dirty_window_produces_writebacks_immediately(self, stage1_warmup):
        """The L2's prefilled dirty tail makes WPKI correct from line 1."""
        _, use_kernel = stage1_warmup
        sim = AppSimulator("omnetpp", baseline_config(), seed=3)
        result = sim.run(20_000, use_kernel=use_kernel)
        # omnetpp (WPKI target 16.2) must show write-backs even in a
        # short window, which only happens if the L2 starts full+dirty.
        assert result.wpki > 5.0

    def test_warm_l3_respects_capacity(self, stage1_warmup):
        """On the 1 MB sensitivity config the working set self-evicts."""
        warm, _ = stage1_warmup
        config = sensitivity_l3_1m()
        sim = AppSimulator("omnetpp", config, seed=3)
        warm(sim, 0)
        assert sim.l3.occupancy() <= config.l3_bank.num_lines


class TestStage2Warmup:
    def _llc(self, scheme, workload, results, config, seed=3):
        mesh = Mesh(config.noc)
        wear = WearTracker(config.num_banks)
        policy = make_policy(scheme, config, mesh, wear)
        llc = NucaLLC(config, policy, mesh, MainMemory(config.memory), wear)
        runner_mod._warm_llc(llc, workload, config, results, seed=seed)
        # The runner resets meters after warm-up (and after any fault
        # application, which must see the warm-up wear); mirror it here.
        llc.reset_measurement()
        return llc

    @pytest.fixture(scope="class")
    def setup(self):
        config = baseline_config()
        workload = Workload("w4", ("omnetpp",) * 16)
        stage1 = Stage1Cache()
        results = [
            stage1.get(app, config, seed=3, n_instructions=15_000)
            for app in workload.apps
        ]
        return config, workload, results

    def test_prefill_installs_resident_sets(self, setup):
        config, workload, results = setup
        llc = self._llc("S-NUCA", workload, results, config)
        params = derive_params(get_profile("omnetpp"), config)
        expected_per_core = sum(
            len(b) for b in warm_sets(params, l2_lines=config.l2.num_lines)["l3"]
        )
        # Some set-conflict shortfall is expected at ~87% global load.
        assert llc.occupancy() >= 0.75 * 16 * expected_per_core

    def test_wear_zero_after_warmup(self, setup):
        config, workload, results = setup
        llc = self._llc("R-NUCA", workload, results, config)
        assert llc.wear.total_writes() == 0
        assert llc.stats.fetches == 0

    def test_renuca_prefill_mixes_mappings(self, setup):
        """Criticality-aware prefill: part near (R), part spread (S)."""
        config, workload, results = setup
        llc = self._llc("Re-NUCA", workload, results, config)
        policy = llc.policy
        core = 5
        cluster = set(policy._rnuca.clusters[core])
        in_cluster = out_cluster = 0
        params = derive_params(get_profile("omnetpp"), config)
        offset = runner_mod._core_base(core)
        sets = warm_sets(params, l2_lines=config.l2.num_lines)
        for line in list(sets["l3"][2])[:2000]:  # the mid region
            bank = llc.resident_bank_of(line + offset)
            if bank is None:
                continue
            if bank in cluster:
                in_cluster += 1
            else:
                out_cluster += 1
        assert in_cluster > 0 and out_cluster > 0

    def test_prefill_deterministic(self, setup):
        config, workload, results = setup
        a = self._llc("Re-NUCA", workload, results, config)
        b = self._llc("Re-NUCA", workload, results, config)
        lines_a = sorted(
            line for bank in a.banks for line in bank.cache.resident_lines()
        )
        lines_b = sorted(
            line for bank in b.banks for line in bank.cache.resident_lines()
        )
        assert lines_a == lines_b
