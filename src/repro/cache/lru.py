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

from typing import Any, Iterator

from repro.common.errors import ConfigError, SimulationError
from repro.common.units import is_power_of_two


class SetAssocArray:
    """``num_sets`` x ``assoc`` tag array mapping tag -> payload per set.

    The payload is opaque to the array (the :class:`~repro.cache.cache.Cache`
    stores a mutable per-line state list there).  All methods take the set
    index explicitly; address-to-set mapping is the caller's concern.
    """

    __slots__ = ("num_sets", "assoc", "_sets")

    def __init__(self, num_sets: int, assoc: int) -> None:
        if not is_power_of_two(num_sets):
            raise ConfigError(f"set count must be a power of two, got {num_sets}")
        if assoc <= 0:
            raise ConfigError(f"associativity must be positive, got {assoc}")
        self.num_sets = num_sets
        self.assoc = assoc
        self._sets: list[dict[int, Any]] = [dict() for _ in range(num_sets)]

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
