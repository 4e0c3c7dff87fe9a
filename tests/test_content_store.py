"""The shared content-addressed store: one contract, checked on both stores.

The stage-2 result cache and the stage-1 store are both
:class:`repro.common.store.ContentStore` directories; each case below
runs against every one of them through its own public ``get``/``put``
calls.  The last case pins each store's on-disk layout: an entry
hand-written in the documented layout must load, and ``put`` must write
exactly that layout.
"""

import json

import numpy as np
import pytest

from repro.cache.cache import CacheStats
from repro.cache.mshr import MshrStats
from repro.common.errors import ReproError
from repro.common.store import COUNTS
from repro.config import baseline_config, scaled_config
from repro.core.criticality import CptStats, CriticalityMeters
from repro.cpu.core import L3Stream, Stage1Result
from repro.jobs.cache import CACHE_FORMAT_VERSION, ResultCache
from repro.jobs.spec import JobSpec
from repro.sim.metrics import WorkloadSchemeResult
from repro.sim.stage1_store import STAGE1_FORMAT_VERSION, Stage1Store
from repro.sim.store import result_to_dict
from repro.telemetry import StatsRegistry
from repro.trace.workloads import Workload
from tests.test_stage1_kernel import assert_identical

CONFIG = scaled_config(baseline_config(), cores=4)
WORKLOAD = Workload("mixA", ("hmmer", "namd", "povray", "dealII"))
INSTR = 6000


def _workload_result() -> WorkloadSchemeResult:
    n = 4
    return WorkloadSchemeResult(
        workload="mixA",
        scheme="S-NUCA",
        apps=WORKLOAD.apps,
        per_core_ipc=np.ones(n),
        per_core_instructions=np.full(n, 1000, dtype=np.int64),
        per_core_cycles=np.full(n, 1000.0),
        bank_writes=np.arange(n, dtype=np.int64) + 1,
        bank_lifetimes=np.full(n, 5.0),
        elapsed_cycles=1000.0,
        llc_fetch_hit_rate=0.5,
        llc_mean_fetch_latency=100.0,
        noc_mean_hops=2.0,
    )


def _stage1_result() -> Stage1Result:
    n = 6
    flags = np.arange(n) % 2 == 0
    meters = CriticalityMeters(loads=7, blocked_loads=3, fetches=5, writes=2)
    meters.agree[:] = np.arange(len(meters.thresholds))
    return Stage1Result(
        app="milc",
        instructions=4000,
        cycles=5123.25,
        base_cpi=1.1,
        stream=L3Stream(
            ts=np.linspace(0.0, 99.5, n),
            line=np.arange(n, dtype=np.int64) * 64,
            pc=np.arange(n, dtype=np.uint32) + 0x400,
            is_wb=~flags,
            is_load=flags,
            predicted=flags,
            true_critical=~flags,
            nominal_lat=np.full(n, 100.5, dtype=np.float32),
            stall=np.full(n, 2.25, dtype=np.float32),
            slack=np.full(n, 0.5, dtype=np.float32),
            mlp=np.ones(n, dtype=np.int16),
        ),
        meters=meters,
        l1_stats=CacheStats(demand_reads=10, hits=8, misses=2),
        l2_stats=CacheStats(misses=2, fills=2, writebacks=1),
        l3_stats=CacheStats(demand_reads=2, misses=1),
        mshr_stats=MshrStats(primary_misses=2, stalls=1),
        cpt_stats=CptStats(lookups=7, lookup_hits=4, inserts=3),
        mem_queue_cycles=12.5,
    )


class ResultCacheCase:
    cls = ResultCache
    prefix = "jobs.cache"

    @staticmethod
    def spec(i):
        return JobSpec.for_run(
            WORKLOAD, "S-NUCA", CONFIG, seed=i, n_instructions=INSTR
        )

    def put(self, store, i):
        store.put(self.spec(i), _workload_result())
        return self.spec(i).fingerprint()

    def get(self, store, i):
        return store.get(self.spec(i))

    @staticmethod
    def bump_version(path):
        payload = json.loads(path.read_text())
        assert payload["format_version"] == CACHE_FORMAT_VERSION
        payload["format_version"] += 1
        path.write_text(json.dumps(payload))

    def write_documented(self, path, fingerprint, i):
        # One JSON object: version, fingerprint, spec, matrix-file result.
        path.write_text(json.dumps({
            "format_version": 1,
            "fingerprint": fingerprint,
            "spec": self.spec(i).to_dict(),
            "result": result_to_dict(_workload_result()),
        }))

    @staticmethod
    def assert_loaded(loaded):
        assert result_to_dict(loaded) == result_to_dict(_workload_result())

    @staticmethod
    def members(path):
        return path.read_bytes()


class Stage1StoreCase:
    cls = Stage1Store
    prefix = "jobs.stage1.store"

    @staticmethod
    def put(store, i):
        store.put(_stage1_result(), CONFIG, seed=i, n_instructions=INSTR)
        return store.fingerprint("milc", CONFIG, seed=i, n_instructions=INSTR)

    @staticmethod
    def get(store, i):
        return store.get("milc", CONFIG, seed=i, n_instructions=INSTR)

    @staticmethod
    def bump_version(path):
        with np.load(path, allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files if k != "meta"}
            meta = json.loads(str(data["meta"]))
        assert meta["format_version"] == STAGE1_FORMAT_VERSION
        meta["format_version"] += 1
        with open(path, "wb") as fh:
            np.savez(fh, meta=json.dumps(meta), **arrays)

    def write_documented(self, path, fingerprint, i):
        # One .npz: a JSON ``meta`` member with the scalars and stats,
        # then every stream_* and meters_* array verbatim.
        r = _stage1_result()
        m = r.meters
        meta = {
            "format_version": 1,
            "fingerprint": fingerprint,
            "app": r.app,
            "instructions": r.instructions,
            "cycles": r.cycles,
            "base_cpi": r.base_cpi,
            "mem_queue_cycles": r.mem_queue_cycles,
            "meters": {
                "thresholds": list(m.thresholds),
                "loads": m.loads,
                "blocked_loads": m.blocked_loads,
                "fetches": m.fetches,
                "writes": m.writes,
            },
        }
        cache_fields = (
            "demand_reads", "demand_writes", "hits", "misses", "fills",
            "writebacks", "clean_evictions", "invalidations",
        )
        for level in ("l1_stats", "l2_stats", "l3_stats"):
            stats = getattr(r, level)
            meta[level] = {name: getattr(stats, name) for name in cache_fields}
        meta["mshr_stats"] = {
            name: getattr(r.mshr_stats, name)
            for name in ("primary_misses", "secondary_misses", "stalls")
        }
        meta["cpt_stats"] = {
            name: getattr(r.cpt_stats, name)
            for name in (
                "lookups", "lookup_hits", "predictions_critical", "inserts",
                "evictions",
            )
        }
        stream = {
            f"stream_{name}": getattr(r.stream, name)
            for name in (
                "ts", "line", "pc", "is_wb", "is_load", "predicted",
                "true_critical", "nominal_lat", "stall", "slack", "mlp",
            )
        }
        meter_arrays = {
            f"meters_{name}": getattr(m, name)
            for name in (
                "true_positive", "predicted_critical", "agree",
                "noncritical_fetches", "noncritical_writes",
            )
        }
        with open(path, "wb") as fh:
            np.savez(fh, meta=json.dumps(meta), **stream, **meter_arrays)

    @staticmethod
    def assert_loaded(loaded):
        assert_identical(_stage1_result(), loaded)

    @staticmethod
    def members(path):
        with np.load(path, allow_pickle=False) as data:
            return [(k, data[k].dtype.str, data[k].tobytes()) for k in data.files]


CASES = {"result_cache": ResultCacheCase(), "stage1_store": Stage1StoreCase()}


@pytest.fixture(params=sorted(CASES))
def case(request):
    return CASES[request.param]


def _entries(root):
    return sorted(p.name for p in root.iterdir())


class TestContentStoreContract:
    def test_missing_entry_is_miss(self, case, tmp_path):
        store = case.cls(tmp_path)
        assert case.get(store, 0) is None
        assert (store.hits, store.misses, store.corrupt) == (0, 1, 0)

    def test_round_trip_hits(self, case, tmp_path):
        store = case.cls(tmp_path)
        case.put(store, 0)
        case.assert_loaded(case.get(store, 0))
        assert case.get(store, 1) is None  # a different key, a different entry
        assert (store.hits, store.misses, store.writes) == (1, 1, 1)

    def test_truncated_entry_is_corrupt_miss(self, case, tmp_path):
        store = case.cls(tmp_path)
        store._corrupt(case.put(store, 0))
        assert case.get(store, 0) is None
        assert (store.hits, store.misses, store.corrupt) == (0, 1, 1)

    @pytest.mark.parametrize(
        "garbage",
        [b"\xff\xfe x", b"", b"PK\x03\x04 truncated", b"[1, 2]", b"null"],
        ids=["non-utf8", "empty", "zip-head", "json-list", "json-null"],
    )
    def test_garbage_entry_is_corrupt_miss(self, case, tmp_path, garbage):
        store = case.cls(tmp_path)
        store.path_for(case.put(store, 0)).write_bytes(garbage)
        assert case.get(store, 0) is None
        assert (store.misses, store.corrupt) == (1, 1)

    def test_stale_version_is_plain_miss(self, case, tmp_path):
        store = case.cls(tmp_path)
        case.bump_version(store.path_for(case.put(store, 0)))
        assert case.get(store, 0) is None
        assert (store.misses, store.corrupt) == (1, 0)

    def test_put_leaves_no_temp_files(self, case, tmp_path):
        store = case.cls(tmp_path)
        fingerprint = case.put(store, 0)
        case.put(store, 0)  # replacing an entry too
        assert _entries(tmp_path) == [store.path_for(fingerprint).name]

    def test_failing_encoder_keeps_previous_entry(self, case, tmp_path):
        store = case.cls(tmp_path)
        fingerprint = case.put(store, 0)
        before = store.path_for(fingerprint).read_bytes()

        def boom(fh):
            fh.write(b"partial")
            raise RuntimeError("encoder failed")

        with pytest.raises(RuntimeError, match="encoder failed"):
            store._write(fingerprint, boom)
        assert store.path_for(fingerprint).read_bytes() == before
        assert _entries(tmp_path) == [store.path_for(fingerprint).name]
        assert store.writes == 1
        case.assert_loaded(case.get(store, 0))

    def test_attributes_and_counters_agree(self, case, tmp_path):
        store = case.cls(tmp_path)
        registry = StatsRegistry()
        store.bind_telemetry(registry)
        assert all(registry.snapshot()[f"{case.prefix}.{n}"] == 0 for n in COUNTS)
        case.get(store, 0)                  # miss
        store._corrupt(case.put(store, 0))  # write
        case.get(store, 0)                  # corrupt miss
        case.put(store, 0)                  # write
        case.get(store, 0)                  # hit
        snap = registry.snapshot()
        expected = {"hits": 1, "misses": 2, "writes": 2, "corrupt": 1}
        for name in COUNTS:
            assert getattr(store, name) == expected[name]
            assert snap[f"{case.prefix}.{name}"] == expected[name]

    def test_unwritable_root_raises(self, case, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        with pytest.raises(ReproError, match=f"cannot create {case.cls.kind}"):
            case.cls(blocker / "store")

    def test_coerce(self, case, tmp_path):
        assert case.cls.coerce(None) is None
        store = case.cls(tmp_path)
        assert case.cls.coerce(store) is store
        coerced = case.cls.coerce(str(tmp_path))
        assert type(coerced) is case.cls
        assert coerced.root == store.root

    def test_len_counts_entries_not_temp_files(self, case, tmp_path):
        store = case.cls(tmp_path)
        name = store.path_for(case.put(store, 0)).name
        (tmp_path / f".{name}.x1y2.tmp").write_bytes(b"half")
        case.put(store, 1)
        assert len(store) == 2

    def test_documented_layout_loads_and_is_what_put_writes(self, case, tmp_path):
        store = case.cls(tmp_path)
        fingerprint = case.put(store, 0)
        path = store.path_for(fingerprint)
        written = case.members(path)
        case.write_documented(path, fingerprint, 0)
        assert case.members(path) == written
        case.assert_loaded(case.get(store, 0))
