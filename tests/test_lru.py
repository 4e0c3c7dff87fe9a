"""Set-associative array: lookup, insertion, eviction order, invariants."""

import numpy as np
import pytest

from repro.cache.lru import SetAssocArray, lru_survivors
from repro.common.errors import ConfigError, SimulationError


class TestBasics:
    def test_miss_returns_none(self):
        arr = SetAssocArray(4, 2)
        assert arr.lookup(0, 0x10) is None

    def test_insert_then_hit(self):
        arr = SetAssocArray(4, 2)
        arr.insert(1, 0x10, "payload")
        assert arr.lookup(1, 0x10) == "payload"

    def test_sets_are_independent(self):
        arr = SetAssocArray(4, 2)
        arr.insert(0, 0x10, "a")
        assert arr.lookup(1, 0x10) is None

    def test_no_eviction_until_full(self):
        arr = SetAssocArray(2, 4)
        for i in range(4):
            assert arr.insert(0, i, i) is None
        assert arr.insert(0, 99, 99) is not None


class TestLruOrder:
    def test_evicts_least_recently_used(self):
        arr = SetAssocArray(1, 2)
        arr.insert(0, 1, "one")
        arr.insert(0, 2, "two")
        victim = arr.insert(0, 3, "three")
        assert victim == (1, "one")

    def test_lookup_promotes(self):
        arr = SetAssocArray(1, 2)
        arr.insert(0, 1, "one")
        arr.insert(0, 2, "two")
        arr.lookup(0, 1)  # promote 1; 2 becomes LRU
        victim = arr.insert(0, 3, "three")
        assert victim == (2, "two")

    def test_untouched_lookup_preserves_order(self):
        arr = SetAssocArray(1, 2)
        arr.insert(0, 1, "one")
        arr.insert(0, 2, "two")
        arr.lookup(0, 1, touch=False)
        victim = arr.insert(0, 3, "three")
        assert victim == (1, "one")

    def test_victim_candidate_peeks_without_evicting(self):
        arr = SetAssocArray(1, 2)
        arr.insert(0, 1, "one")
        assert arr.victim_candidate(0) is None  # not full
        arr.insert(0, 2, "two")
        assert arr.victim_candidate(0) == (1, "one")
        assert arr.lookup(0, 1, touch=False) == "one"  # still there

    def test_exhaustive_lru_against_reference(self):
        """Drive one set with a long access pattern vs a reference model."""
        arr = SetAssocArray(1, 4)
        reference: list[int] = []  # LRU -> MRU
        import random

        rnd = random.Random(42)
        for _ in range(2000):
            tag = rnd.randrange(12)
            found = arr.lookup(0, tag)
            if tag in reference:
                assert found == f"v{tag}"
                reference.remove(tag)
                reference.append(tag)
            else:
                assert found is None
                victim = arr.insert(0, tag, f"v{tag}")
                if len(reference) == 4:
                    expect = reference.pop(0)
                    assert victim is not None and victim[0] == expect
                else:
                    assert victim is None
                reference.append(tag)


class TestInvalidate:
    def test_invalidate_present(self):
        arr = SetAssocArray(2, 2)
        arr.insert(0, 5, "x")
        assert arr.invalidate(0, 5) == "x"
        assert arr.lookup(0, 5) is None

    def test_invalidate_absent_returns_none(self):
        arr = SetAssocArray(2, 2)
        assert arr.invalidate(0, 5) is None

    def test_invalidate_frees_way(self):
        arr = SetAssocArray(1, 2)
        arr.insert(0, 1, "a")
        arr.insert(0, 2, "b")
        arr.invalidate(0, 1)
        assert arr.insert(0, 3, "c") is None  # no eviction needed


class TestErrors:
    def test_double_insert_rejected(self):
        arr = SetAssocArray(2, 2)
        arr.insert(0, 1, "a")
        with pytest.raises(SimulationError):
            arr.insert(0, 1, "again")

    def test_bad_geometry_rejected(self):
        with pytest.raises(ConfigError):
            SetAssocArray(3, 2)
        with pytest.raises(ConfigError):
            SetAssocArray(4, 0)


class TestOccupancyAndIteration:
    def test_occupancy_counts(self):
        arr = SetAssocArray(2, 2)
        arr.insert(0, 1, "a")
        arr.insert(1, 2, "b")
        assert arr.occupancy(0) == 1
        assert arr.total_occupancy() == 2

    def test_iter_all_covers_everything(self):
        arr = SetAssocArray(2, 4)
        arr.insert(0, 1, "a")
        arr.insert(1, 9, "b")
        entries = set(arr.iter_all())
        assert entries == {(0, 1, "a"), (1, 9, "b")}

    def test_flush_drains_and_clears(self):
        arr = SetAssocArray(2, 2)
        arr.insert(0, 1, "a")
        arr.insert(1, 2, "b")
        drained = arr.flush()
        assert len(drained) == 2
        assert arr.total_occupancy() == 0


class TestLruSurvivors:
    @pytest.mark.parametrize("n", [0, 1, 7, 200])
    def test_matches_a_miss_only_fill(self, n):
        rng = np.random.default_rng(n)
        set_idx = rng.integers(0, 8, size=n)
        arr = SetAssocArray(8, 3)
        for i, s in enumerate(set_idx.tolist()):
            arr.insert(s, i, None)
        keep = lru_survivors(set_idx, 3)
        expected = [tag for s in range(8) for tag, _ in arr.iter_set(s)]
        assert keep.tolist() == expected
