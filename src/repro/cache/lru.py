"""Raw set-associative tag array with true-LRU replacement.

This is the innermost data structure of the simulator — every memory
reference at every cache level lands here — so each set is a plain
``dict`` whose *insertion order* is the recency order: least-recently-
used first, most-recently-used last.  A hit re-inserts its tag (one
``pop`` + one store, both C-level hash operations), which moves it to
the end exactly like ``OrderedDict.move_to_end`` but keeps the sets as
ordinary dicts, which the stage-1 kernel can drive directly
(:meth:`SetAssocArray.set_views`).
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Callable, Iterator

import numpy as np

from repro.common.errors import ConfigError, SimulationError
from repro.common.units import is_power_of_two


class SetAssocArray:
    """``num_sets`` x ``assoc`` tag array mapping tag -> payload per set.

    The payload is opaque to the array (the :class:`~repro.cache.cache.Cache`
    stores a mutable per-line state list there).  All methods take the set
    index explicitly; address-to-set mapping is the caller's concern.

    The per-set dicts are built on first use, so an array nothing reads
    costs no set dicts: the LLC banks on the stage-2 kernel path, whose
    content lives in :class:`~repro.nuca.kernel.ArrayBanks`.  An empty
    array can also be handed its whole content at once and build each
    set's dict only when that set is first read (:meth:`defer_fill`): the
    stage-1 kernel's nominal L3, of whose sets a short walk reads a few.
    """

    __slots__ = ("num_sets", "assoc", "_sets", "_pending")

    def __init__(self, num_sets: int, assoc: int) -> None:
        if not is_power_of_two(num_sets):
            raise ConfigError(f"set count must be a power of two, got {num_sets}")
        if assoc <= 0:
            raise ConfigError(f"associativity must be positive, got {assoc}")
        self.num_sets = num_sets
        self.assoc = assoc
        self._pending: tuple | None = None

    def __getattr__(self, name: str) -> Any:
        # Reached only while a slot is unset: ``_sets`` on first use, which
        # also builds every set still pending from :meth:`defer_fill`.
        if name != "_sets":
            raise AttributeError(name)
        if self._pending is None:
            sets: list[dict[int, Any]] = [dict() for _ in range(self.num_sets)]
        else:
            sets = self._pending[0]
            for set_idx, ways in enumerate(sets):
                if ways is None:
                    self._build(set_idx)
            self._pending = None
        self._sets = sets
        return sets

    def is_empty(self) -> bool:
        """True when no set holds a line; builds no set."""
        if self._pending is not None:
            views, _starts, tags, _payload = self._pending
            return not tags and not any(views)
        try:
            sets = object.__getattribute__(self, "_sets")
        except AttributeError:
            return True
        return not any(sets)

    def defer_fill(self, set_idx: np.ndarray, tags: np.ndarray, payload: tuple) -> None:
        """Make ``tags`` the content of this empty array, one set at a time.

        ``tags`` lie grouped by ascending ``set_idx`` (their sets), in
        LRU -> MRU order within a set and at most ``assoc`` to a set: the
        order :func:`lru_survivors` returns.  Set ``s``'s dict is built
        the first time anything reads it, through :meth:`lazy_views` or
        any other method, each tag with a fresh ``list(payload)``.  The
        caller guarantees the array is empty (:meth:`is_empty`).
        """
        starts = np.zeros(self.num_sets + 1, dtype=np.int64)
        np.cumsum(np.bincount(set_idx, minlength=self.num_sets), out=starts[1:])
        try:
            del self._sets  # built, but empty: rebuilt with the content
        except AttributeError:
            pass
        self._pending = ([None] * self.num_sets, starts.tolist(), tags.tolist(), payload)

    def lazy_views(self) -> tuple[list[dict[int, Any] | None], Callable[[int], dict[int, Any]]]:
        """``(views, build)``: :meth:`set_views` without building any set.

        ``views[s]`` is set ``s``'s live dict, or None while the set is
        still pending from :meth:`defer_fill`; ``build(s)`` builds it
        into ``views`` and returns it.  The stage-1 kernel's walk reads
        its nominal L3 through these and builds only the sets it touches.
        """
        if self._pending is None:
            return self._sets, self._build
        return self._pending[0], self._build

    def _build(self, set_idx: int) -> dict[int, Any]:
        views, starts, tags, payload = self._pending
        ways = dict(zip(tags[starts[set_idx]:starts[set_idx + 1]], map(list, repeat(payload))))
        views[set_idx] = ways
        return ways

    def lookup(self, set_idx: int, tag: int, *, touch: bool = True) -> Any | None:
        """Return the payload stored under ``tag`` or None on miss.

        ``touch`` promotes the line to most-recently-used (a probe that
        must not disturb recency — e.g. a coherence snoop — passes False).
        """
        ways = self._sets[set_idx]
        if touch:
            entry = ways.pop(tag, None)
            if entry is not None:
                ways[tag] = entry
            return entry
        return ways.get(tag)

    def insert(
        self, set_idx: int, tag: int, payload: Any
    ) -> tuple[int, Any] | None:
        """Insert ``tag`` as MRU; return the evicted ``(tag, payload)`` if any.

        Raises:
            SimulationError: if the tag is already present (caller must
                look up before inserting; double-insertion is a protocol
                bug, not a recoverable condition).
        """
        ways = self._sets[set_idx]
        if tag in ways:
            raise SimulationError(
                f"insert of tag {tag:#x} into set {set_idx} which already holds it"
            )
        victim: tuple[int, Any] | None = None
        if len(ways) >= self.assoc:
            lru_tag = next(iter(ways))
            victim = (lru_tag, ways.pop(lru_tag))
        ways[tag] = payload
        return victim

    def invalidate(self, set_idx: int, tag: int) -> Any | None:
        """Remove ``tag`` from the set, returning its payload (None if absent)."""
        return self._sets[set_idx].pop(tag, None)

    def victim_candidate(self, set_idx: int) -> tuple[int, Any] | None:
        """Peek at the LRU line of a full set without evicting it.

        Returns None while the set still has free ways.
        """
        ways = self._sets[set_idx]
        if len(ways) < self.assoc:
            return None
        tag = next(iter(ways))
        return tag, ways[tag]

    def occupancy(self, set_idx: int) -> int:
        """Number of valid lines currently in the set."""
        return len(self._sets[set_idx])

    def ways(self, set_idx: int) -> dict[int, Any]:
        """The live tag->payload mapping of one set, LRU->MRU order.

        Exposed for replacement policies (package-internal); mutating it
        directly bypasses the array's invariants — use lookup/insert/
        invalidate for that.
        """
        return self._sets[set_idx]

    def iter_set(self, set_idx: int) -> Iterator[tuple[int, Any]]:
        """Iterate ``(tag, payload)`` in LRU->MRU order."""
        return iter(self._sets[set_idx].items())

    def iter_all(self) -> Iterator[tuple[int, int, Any]]:
        """Iterate ``(set_idx, tag, payload)`` over the whole array."""
        for set_idx, ways in enumerate(self._sets):
            for tag, payload in ways.items():
                yield set_idx, tag, payload

    def set_views(self) -> list[dict[int, Any]]:
        """The live per-set dicts, in set order (package-internal).

        Bulk counterpart of :meth:`ways` for the stage-1 kernel, which
        drives the sets in place from its hot loop: ``views[s]`` is set
        ``s``'s tag->payload dict in LRU -> MRU order.
        """
        return self._sets

    def total_occupancy(self) -> int:
        """Total valid lines across all sets."""
        return sum(len(ways) for ways in self._sets)

    def flush(self) -> list[tuple[int, int, Any]]:
        """Invalidate everything, returning the drained lines."""
        drained = list(self.iter_all())
        for ways in self._sets:
            ways.clear()
        return drained


def lru_survivors(set_idx: np.ndarray, assoc: int) -> np.ndarray:
    """Closed form of filling empty LRU sets with a miss-only stream.

    ``set_idx[i]`` is the (non-negative) set of the ``i``-th install.
    Every install misses, so each set ends holding its last ``assoc``
    installs in insertion order.  Returns their indices grouped by
    ascending set, in insertion (LRU -> MRU) order within a set.

    One stable argsort groups the installs by set; a set's survivors
    are the last ``min(count, assoc)`` of its group, found from
    per-set counts with int32 ranks.
    """
    n = len(set_idx)
    order = np.argsort(set_idx, kind="stable")
    counts = np.bincount(set_idx)
    first = (np.cumsum(counts) - np.minimum(counts, assoc)).astype(np.int32)
    rank = np.arange(n, dtype=np.int32)
    rank -= first[set_idx[order]]
    return order[rank >= 0]
