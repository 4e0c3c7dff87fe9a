"""Stage-2 runner: merging, workload execution, matrices."""

from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ReproError, SimulationError
from repro.config import baseline_config
from repro.cpu.core import L3Stream
from repro.nuca import kernel as nuca_kernel
from repro.sim.calibrate import calibrated_base_cpi, config_signature
from repro.sim.metrics import MatrixResult
from repro.sim.runner import (
    Stage1Cache,
    _core_base,
    _merge_streams,
    run_matrix,
    run_workload,
)
from repro.trace.workloads import Workload

INSTR = 40_000

LIGHT_MIX = Workload(
    "light16",
    (
        "hmmer", "namd", "povray", "dealII",
        "astar", "sjeng", "h264ref", "gromacs",
        "bzip2", "soplex", "sphinx3", "GemsFDTD",
        "milc", "leslie3d", "omnetpp", "xalancbmk",
    ),
)


@pytest.fixture(scope="module")
def stage1():
    return Stage1Cache()


@pytest.fixture(scope="module")
def snuca_result(stage1):
    return run_workload(LIGHT_MIX, "S-NUCA", baseline_config(), seed=2,
                        n_instructions=INSTR, stage1=stage1)


class TestStage1Cache:
    def test_memoises(self, stage1):
        cfg = baseline_config()
        before = len(stage1)
        a = stage1.get("hmmer", cfg, seed=2, n_instructions=INSTR)
        mid = len(stage1)
        b = stage1.get("hmmer", cfg, seed=2, n_instructions=INSTR)
        assert b is a
        assert len(stage1) == mid >= before

    def test_different_budget_different_entry(self, stage1):
        cfg = baseline_config()
        a = stage1.get("hmmer", cfg, seed=2, n_instructions=INSTR)
        b = stage1.get("hmmer", cfg, seed=2, n_instructions=INSTR // 2)
        assert a is not b

    def test_config_signature_distinguishes_variants(self):
        from repro.config import sensitivity_l2_128k

        assert config_signature(baseline_config()) != config_signature(
            sensitivity_l2_128k()
        )


class TestCalibration:
    def test_base_cpi_within_clamp(self):
        cpi = calibrated_base_cpi("hmmer", baseline_config(), seed=2)
        assert 0.25 <= cpi <= 20.0

    def test_calibration_improves_ipc_match(self, stage1):
        cfg = baseline_config()
        result = stage1.get("hmmer", cfg, seed=2, n_instructions=INSTR)
        from repro.trace.profiles import get_profile

        target = get_profile("hmmer").ipc
        assert result.ipc == pytest.approx(target, rel=0.3)

    def test_memoised(self):
        cfg = baseline_config()
        assert calibrated_base_cpi("namd", cfg, seed=2) == calibrated_base_cpi(
            "namd", cfg, seed=2
        )


def _merged_column(merged, name):
    """Column ``name`` of a merged stream, reassembled from its chunks."""
    return np.concatenate([getattr(rec, name) for rec in merged.chunks()])


class TestMergeStreams:
    def test_sorted_by_time(self, stage1):
        cfg = baseline_config()
        results = [stage1.get(a, cfg, seed=2, n_instructions=INSTR)
                   for a in ("hmmer", "milc")]
        merged = _merge_streams(results)
        assert np.all(np.diff(_merged_column(merged, "ts")) >= 0)

    def test_replay_extends_fast_cores(self, stage1):
        cfg = baseline_config()
        results = [stage1.get(a, cfg, seed=2, n_instructions=INSTR)
                   for a in ("hmmer", "milc")]  # hmmer much faster
        merged = _merge_streams(results)
        fast_records = int(np.count_nonzero(_merged_column(merged, "core") == 0))
        assert fast_records > len(results[0].stream)  # replayed

    def test_measured_slices_align_with_streams(self, stage1):
        cfg = baseline_config()
        results = [stage1.get(a, cfg, seed=2, n_instructions=INSTR)
                   for a in ("hmmer", "milc")]
        merged = _merge_streams(results)
        for core, result in enumerate(results):
            lo, hi = merged.measured_slices[core]
            assert hi - lo == len(result.stream)
            assert np.array_equal(merged.measured_column("pc")[lo:hi],
                                  result.stream.pc)

    def test_address_spaces_disjoint(self, stage1):
        cfg = baseline_config()
        results = [stage1.get(a, cfg, seed=2, n_instructions=INSTR)
                   for a in ("hmmer", "hmmer")]
        merged = _merge_streams(results)
        core = _merged_column(merged, "core")
        line = _merged_column(merged, "line")
        lines0 = set(line[core == 0].tolist())
        lines1 = set(line[core == 1].tolist())
        assert not lines0 & lines1


def _merge_copies(results):
    """Oracle: the merge that builds every cyclic copy, then sorts them.

    Returns the merged columns, the sort permutation of the copies'
    concatenation and each core's first-copy slice of it.
    """
    horizon = max(float(r.cycles) for r in results)
    cols = {name: [] for name in
            ("ts", "line", "pc", "is_wb", "is_load", "stall", "slack", "mlp",
             "nominal")}
    core_parts = []
    measured_slices = []
    cursor = 0
    for core, result in enumerate(results):
        s = result.stream
        span = max(float(result.cycles), 1.0)
        reps = max(1, int(np.ceil(horizon / span)))
        line = s.line + _core_base(core)
        measured_slices.append((cursor, cursor + len(s)))
        for rep in range(reps):
            ts_rep = s.ts + rep * span
            if rep:
                keep = ts_rep <= horizon
                if not keep.any():
                    break
                ts_rep = ts_rep[keep]
            else:
                keep = slice(None)
            cols["ts"].append(ts_rep)
            cols["line"].append(line[keep])
            cols["pc"].append(s.pc[keep])
            cols["is_wb"].append(s.is_wb[keep])
            cols["is_load"].append(s.is_load[keep])
            cols["stall"].append(s.stall[keep])
            cols["slack"].append(s.slack[keep])
            cols["mlp"].append(s.mlp[keep])
            cols["nominal"].append(s.nominal_lat[keep])
            core_parts.append(np.full(len(ts_rep), core, dtype=np.int16))
            cursor += len(ts_rep)
    order = np.argsort(np.concatenate(cols["ts"]), kind="stable")
    merged = {name: np.concatenate(parts)[order] for name, parts in cols.items()}
    merged["core"] = np.concatenate(core_parts)[order]
    return merged, order, measured_slices


def _stream(ts, rng):
    """An L3 stream at timestamps ``ts`` with random other columns."""
    n = len(ts)
    return L3Stream(
        ts=np.asarray(ts, dtype=np.float64),
        line=rng.integers(0, 1 << 20, n),
        pc=rng.integers(0, 1 << 32, n, dtype=np.uint32),
        is_wb=rng.random(n) < 0.3,
        is_load=rng.random(n) < 0.6,
        predicted=rng.random(n) < 0.5,
        true_critical=rng.random(n) < 0.5,
        nominal_lat=rng.random(n, dtype=np.float32) * 300,
        stall=rng.random(n, dtype=np.float32) * 40 - 10,
        slack=rng.random(n, dtype=np.float32) * 50,
        mlp=rng.integers(1, 8, n, dtype=np.int16),
    )


@st.composite
def _stage1_results(draw):
    """A few cores' stage-1 results: streams and run lengths only.

    Timestamps never decrease, as stage 1's dispatch clock does not.
    They are quarter cycles from a small range, so cores tie with each
    other and with the windows' power-of-two edges; run lengths below 1
    cycle, and ones that are not exact in binary, make the copies'
    shifted timestamps round as a whole-stream shift would.  Whole run
    lengths end copies exactly at the horizon, and a 300-cycle horizon
    replays a short core more than 255 times.
    """
    results = []
    for core in range(draw(st.integers(1, 4))):
        n = draw(st.integers(0, 12))
        ticks = sorted(draw(st.lists(st.integers(0, 60), min_size=n, max_size=n)))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        stream = _stream(np.asarray(ticks) / 4, rng)
        cycles = draw(st.sampled_from(
            [0.0, 0.4, 1.0, 2.0, 2.7, 3.3, 7.7, 15.0, 300.0]
        ))
        results.append(SimpleNamespace(cycles=cycles, stream=stream))
    return results


class TestMergedIndex:
    """The windowed merge reassembles, chunk by chunk, the merge of copies."""

    @given(results=_stage1_results(),
           chunk=st.sampled_from([1, 3, 7, 13, 4096, 1 << 14]))
    @settings(max_examples=200, deadline=None)
    def test_chunks_equal_the_copies(self, results, chunk):
        want, order, slices = _merge_copies(results)
        with mock.patch.object(nuca_kernel, "_CHUNK", chunk):
            merged = _merge_streams(results)
            chunks = list(merged.chunks())
            again = list(merged.chunks())
        assert merged.total == len(order)
        assert [rec.lo for rec in chunks] == list(range(0, merged.total, chunk))
        for name, column in want.items():
            parts = [getattr(rec, name) for rec in chunks]
            got = np.concatenate(parts) if parts else column[:0]
            assert got.dtype == column.dtype, name
            assert got.tobytes() == column.tobytes(), name
        # The merged stream can be streamed again, to the same chunks.
        assert [(rec.lo, rec.src.tobytes(), rec.ts.tobytes()) for rec in again] == [
            (rec.lo, rec.src.tobytes(), rec.ts.tobytes()) for rec in chunks
        ]
        assert merged.last_ts == (float(want["ts"][-1]) if len(order) else 0.0)
        # Each measured record lands where the copies' unsort puts it:
        # the oracle's slices cover the first copies among all copies.
        assert [hi - lo for lo, hi in merged.measured_slices] == [
            hi - lo for lo, hi in slices
        ]
        where = np.empty(merged.measured, dtype=np.int64)
        for rec in chunks:
            rec.scatter_measured(where, np.arange(rec.lo, rec.lo + len(rec.src)))
        position = np.empty(len(order), dtype=np.int64)
        position[order] = np.arange(len(order))
        assert np.array_equal(
            where, np.concatenate([position[lo:hi] for lo, hi in slices])
        )

    def test_draws_reach_what_the_property_is_about(self):
        # Ties on a window edge, a copy ending exactly at the horizon, an
        # empty core and over 255 copies of one core, in one merge.
        rng = np.random.default_rng(0)
        results = [
            SimpleNamespace(cycles=2.0, stream=_stream([0.0, 1.0, 1.5, 2.0], rng)),
            SimpleNamespace(cycles=300.0, stream=_stream([0.5, 1.0, 1.0, 299.5], rng)),
            SimpleNamespace(cycles=5.0, stream=_stream([], rng)),
            SimpleNamespace(cycles=0.4, stream=_stream([0.0, 0.5], rng)),
        ]
        want, order, _ = _merge_copies(results)
        values, counts = np.unique(want["ts"], return_counts=True)
        ties = set(values[counts > 1].tolist())
        # The first chunk size whose window edges fall on a tie.
        for chunk in range(1, 100):
            with mock.patch.object(nuca_kernel, "_CHUNK", chunk):
                merged = _merge_streams(results)
                if ties & set(merged._edges()):
                    chunks = list(merged.chunks())
                    break
        else:
            pytest.fail("no window edge falls on a tie")
        assert merged.total == len(order)
        for name, column in want.items():
            got = np.concatenate([getattr(rec, name) for rec in chunks])
            assert got.tobytes() == column.tobytes(), name
        assert max(rep for _, rep, _ in merged.runs) > 255
        assert any(np.any(rec.rep > 255) for rec in chunks)
        core0 = [(rep, length) for core, rep, length in merged.runs if core == 0]
        assert core0[-1] == (149, 4)  # 2.0 + 149 * 2.0 == 300.0
        assert not any(core == 2 for core, _, _ in merged.runs)

    def test_empty_streams_merge_to_nothing(self):
        results = [
            SimpleNamespace(cycles=cycles, stream=L3Stream(
                *(np.zeros(0, dtype=dtype) for dtype in (
                    np.float64, np.int64, np.uint32, bool, bool, bool, bool,
                    np.float32, np.float32, np.float32, np.int16,
                ))
            ))
            for cycles in (0.0, 5.0)
        ]
        merged = _merge_streams(results)
        assert merged.total == merged.measured == 0
        assert list(merged.chunks()) == []
        assert merged.last_ts == 0.0

    @pytest.mark.parametrize("ts", [[0.0, 2.0, 1.0], [3.0, 3.0, 2.5, 4.0]])
    def test_stream_going_back_in_time_raises(self, ts):
        rng = np.random.default_rng(1)
        results = [
            SimpleNamespace(cycles=4.0, stream=_stream([0.0, 1.0], rng)),
            SimpleNamespace(cycles=4.0, stream=_stream(ts, rng)),
        ]
        with pytest.raises(SimulationError, match="core 1"):
            _merge_streams(results)


class TestRunWorkload:
    def test_result_shape(self, snuca_result):
        assert snuca_result.scheme == "S-NUCA"
        assert len(snuca_result.per_core_ipc) == 16
        assert len(snuca_result.bank_lifetimes) == 16
        assert snuca_result.elapsed_cycles > 0

    def test_ipc_is_throughput_sum(self, snuca_result):
        assert snuca_result.ipc == pytest.approx(
            float(snuca_result.per_core_ipc.sum())
        )

    def test_bank_writes_positive(self, snuca_result):
        assert snuca_result.bank_writes.sum() > 0

    def test_lifetimes_positive(self, snuca_result):
        assert np.all(snuca_result.bank_lifetimes > 0)
        assert snuca_result.min_lifetime == snuca_result.bank_lifetimes.min()

    def test_wrong_core_count_rejected(self, stage1):
        small = Workload("two", ("hmmer", "milc"))
        with pytest.raises(ReproError) as excinfo:
            run_workload(small, "S-NUCA", baseline_config(), stage1=stage1)
        # The message states both counts so the mismatch is actionable.
        message = str(excinfo.value)
        assert "two" in message and "2" in message and "16" in message

    def test_snuca_wear_near_uniform(self, snuca_result):
        writes = snuca_result.bank_writes
        assert writes.std() / writes.mean() < 0.2


class TestRunMatrix:
    def test_matrix_accessors(self, stage1):
        cfg = baseline_config()
        matrix = run_matrix(
            [LIGHT_MIX], ("S-NUCA", "Private"), cfg,
            seed=2, n_instructions=INSTR, stage1=stage1,
        )
        assert matrix.get("light16", "S-NUCA").scheme == "S-NUCA"
        improvement = matrix.ipc_improvement_over("Private")
        assert "light16" in improvement
        summary = matrix.lifetime_summary_of("Private")
        assert summary["hmean_per_bank"].shape == (16,)
        with pytest.raises(ReproError):
            matrix.get("light16", "R-NUCA")

    def test_progress_callback(self, stage1):
        calls = []
        run_matrix(
            [LIGHT_MIX], ("S-NUCA",), baseline_config(),
            seed=2, n_instructions=INSTR, stage1=stage1,
            progress=lambda wl, s: calls.append((wl, s)),
        )
        assert calls == [("light16", "S-NUCA")]


class TestMatrixMetrics:
    def test_tradeoff_points(self, stage1):
        matrix = run_matrix(
            [LIGHT_MIX], ("S-NUCA", "Private"), baseline_config(),
            seed=2, n_instructions=INSTR, stage1=stage1,
        )
        points = matrix.tradeoff_points()
        assert set(points) == {"S-NUCA", "Private"}
        for ipc, life in points.values():
            assert ipc > 0 and life > 0

    def test_empty_matrix_raises(self):
        matrix = MatrixResult(label="x", schemes=("S-NUCA",), workloads=("WL1",))
        with pytest.raises(ReproError):
            matrix.get("WL1", "S-NUCA")


class TestStage1Lru:
    """The stage-1 memo is a bounded LRU with observable occupancy."""

    @pytest.fixture
    def flat_cpi(self, monkeypatch):
        monkeypatch.setattr(
            "repro.sim.runner.calibrated_base_cpi",
            lambda app, config, seed=None: 1.0,
        )

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ReproError, match="at least one entry"):
            Stage1Cache(max_entries=0)

    def test_evicts_least_recently_used(self, flat_cpi):
        cfg = baseline_config()
        cache = Stage1Cache(max_entries=2)
        a = cache.get("hmmer", cfg, seed=2, n_instructions=4_000)
        cache.get("namd", cfg, seed=2, n_instructions=4_000)
        cache.get("povray", cfg, seed=2, n_instructions=4_000)
        assert len(cache) == 2
        assert cache.evictions == 1
        # "hmmer" was the LRU entry; refetching recomputes it.
        assert cache.get("hmmer", cfg, seed=2, n_instructions=4_000) is not a

    def test_hit_refreshes_recency(self, flat_cpi):
        cfg = baseline_config()
        cache = Stage1Cache(max_entries=2)
        a = cache.get("hmmer", cfg, seed=2, n_instructions=4_000)
        cache.get("namd", cfg, seed=2, n_instructions=4_000)
        cache.get("hmmer", cfg, seed=2, n_instructions=4_000)  # touch
        cache.get("povray", cfg, seed=2, n_instructions=4_000)  # evicts namd
        assert cache.get("hmmer", cfg, seed=2, n_instructions=4_000) is a
        assert cache.evictions == 1

    def test_clear_keeps_eviction_total(self, flat_cpi):
        cfg = baseline_config()
        cache = Stage1Cache(max_entries=1)
        cache.get("hmmer", cfg, seed=2, n_instructions=4_000)
        cache.get("namd", cfg, seed=2, n_instructions=4_000)
        cache.clear()
        assert len(cache) == 0
        assert cache.evictions == 1

    def test_bind_telemetry_gauges(self, flat_cpi):
        from repro.telemetry import StatsRegistry

        cfg = baseline_config()
        cache = Stage1Cache(max_entries=4)
        registry = StatsRegistry()
        cache.bind_telemetry(registry)
        assert registry.snapshot()["jobs.stage1.entries"] == 0.0
        cache.get("hmmer", cfg, seed=2, n_instructions=4_000)
        snap = registry.snapshot()
        assert snap["jobs.stage1.entries"] == 1.0
        assert snap["jobs.stage1.evictions"] == 0.0
