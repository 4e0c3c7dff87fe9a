"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cache import Cache
from repro.cache.lru import SetAssocArray
from repro.common.stats import RunningStats, harmonic_mean
from repro.config import CacheConfig, NocConfig
from repro.core.tlb import EnhancedTlb
from repro.noc.mesh import Mesh
from repro.reram.endurance import bank_lifetime_years

lines = st.integers(min_value=0, max_value=2**40)


class TestLruProperties:
    @given(st.lists(st.integers(0, 30), min_size=1, max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, tags):
        arr = SetAssocArray(2, 4)
        for tag in tags:
            if arr.lookup(tag & 1, tag) is None:
                arr.insert(tag & 1, tag, tag)
            assert arr.occupancy(tag & 1) <= 4

    @given(st.lists(st.integers(0, 30), min_size=1, max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_most_recent_k_tags_always_resident(self, tags):
        """The last `assoc` distinct tags touched in a set must be present."""
        assoc = 4
        arr = SetAssocArray(1, assoc)
        recent: list[int] = []
        for tag in tags:
            if arr.lookup(0, tag) is None:
                arr.insert(0, tag, tag)
            if tag in recent:
                recent.remove(tag)
            recent.append(tag)
            for t in recent[-assoc:]:
                assert arr.lookup(0, t, touch=False) is not None


class TestCacheProperties:
    @given(st.lists(st.tuples(lines, st.booleans()), min_size=1, max_size=400))
    @settings(max_examples=40, deadline=None)
    def test_accounting_identities(self, accesses):
        cache = Cache(CacheConfig(2048, 2, 1, name="p"))
        for line, is_write in accesses:
            cache.access(line, is_write)
        s = cache.stats
        assert s.hits + s.misses == len(accesses)
        assert s.fills == s.misses
        assert s.writebacks + s.clean_evictions <= s.fills
        assert cache.occupancy() == s.fills - s.writebacks - s.clean_evictions
        assert cache.occupancy() <= cache.config.num_lines

    @given(st.lists(st.tuples(lines, st.booleans()), min_size=1, max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_resident_set_matches_replay(self, accesses):
        """The cache's resident set equals an LRU reference replay."""
        cache = Cache(CacheConfig(1024, 2, 1, name="p"))
        num_sets = cache.num_sets
        reference: dict[int, list[int]] = {}
        for line, is_write in accesses:
            cache.access(line, is_write)
            bucket = reference.setdefault(line & (num_sets - 1), [])
            if line in bucket:
                bucket.remove(line)
            bucket.append(line)
            if len(bucket) > 2:
                bucket.pop(0)
        expect = sorted(line for bucket in reference.values() for line in bucket)
        assert sorted(cache.resident_lines()) == expect


class TestMeshProperties:
    @given(st.integers(0, 15), st.integers(0, 15))
    @settings(max_examples=100, deadline=None)
    def test_route_length_is_manhattan(self, a, b):
        mesh = Mesh(NocConfig())
        assert len(mesh.route(a, b)) - 1 == mesh.distance(a, b)

    @given(st.integers(0, 15), st.integers(0, 15), st.integers(0, 15))
    @settings(max_examples=100, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        mesh = Mesh(NocConfig())
        assert mesh.distance(a, c) <= mesh.distance(a, b) + mesh.distance(b, c)


class TestTlbProperties:
    @given(
        st.lists(
            st.tuples(st.integers(0, 300), st.integers(0, 63), st.integers(0, 2)),
            min_size=1,
            max_size=400,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_mbv_bits_never_lost_or_invented(self, ops):
        """The TLB+backing store behaves exactly like a plain dict of bits."""
        tlb = EnhancedTlb()
        reference: dict[int, bool] = {}
        for page, idx, op in ops:
            line = page * 64 + idx
            if op == 0:
                tlb.set_mapping_bit(line, True)
                reference[line] = True
            elif op == 1:
                tlb.clear_mapping_bit(line)
                reference[line] = False
            else:
                assert tlb.mapping_bit(line) == reference.get(line, False)
        tlb.check_invariants()
        for line, value in reference.items():
            assert tlb.mapping_bit(line) == value


class TestStatsProperties:
    positive_floats = st.floats(min_value=0.01, max_value=1e6)

    @given(st.lists(positive_floats, min_size=1, max_size=50))
    @settings(max_examples=80, deadline=None)
    def test_harmonic_le_arithmetic(self, values):
        assert harmonic_mean(values) <= float(np.mean(values)) * (1 + 1e-9)

    @given(st.lists(positive_floats, min_size=1, max_size=50))
    @settings(max_examples=80, deadline=None)
    def test_harmonic_bounded_by_extremes(self, values):
        h = harmonic_mean(values)
        assert min(values) * (1 - 1e-9) <= h <= max(values) * (1 + 1e-9)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=100))
    @settings(max_examples=60, deadline=None)
    def test_running_stats_matches_numpy(self, values):
        acc = RunningStats()
        for v in values:
            acc.add(v)
        assert acc.mean == np.float64(np.mean(values)).item() or abs(
            acc.mean - float(np.mean(values))
        ) < 1e-6 * max(1.0, abs(float(np.mean(values))))


class TestLifetimeProperties:
    @given(
        st.integers(1, 10**9),
        st.floats(1e3, 1e12),
        st.floats(0.05, 1.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_lifetime_monotone_in_writes(self, writes, cycles, spread):
        kwargs = dict(
            lines_per_bank=32768, cell_endurance=1e11, wear_spread=spread
        )
        a = bank_lifetime_years(writes, cycles, 2.4e9, **kwargs)
        b = bank_lifetime_years(writes * 2, cycles, 2.4e9, **kwargs)
        assert b <= a
