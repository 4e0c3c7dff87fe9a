"""A write-back, write-allocate set-associative cache.

One class serves every level: the private L1s and L2s use
:meth:`Cache.access` directly, while the NUCA L3 controller drives the
lower-level :meth:`Cache.probe` / :meth:`Cache.allocate` pair because its
mapping policy — not the cache — decides which bank a line lives in.

Tags store the **full line address** (uniqueness is then trivial), and the
set index is ``(line >> index_shift) & (num_sets - 1)``.  The shift matters
for L3 banks: when S-NUCA picks the bank from the low line bits, those bits
are constant within a bank, so the bank indexes with ``index_shift =
log2(num_banks)`` to keep its sets balanced.  Because the tag is the whole
line address, lines placed in the same bank by *different* NUCA mappings
(Re-NUCA mixes two) can never alias.

Line state is a two-element mutable list ``[dirty, aux]`` stored as the
:class:`~repro.cache.lru.SetAssocArray` payload; ``aux`` is an opaque slot
the L3 uses to remember per-line criticality for write accounting.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.lru import SetAssocArray
from repro.common.errors import ConfigError, SimulationError
from repro.config import CacheConfig

_DIRTY = 0
_AUX = 1


@dataclass
class CacheStats:
    """Demand/refill accounting for one cache instance."""

    demand_reads: int = 0
    demand_writes: int = 0
    hits: int = 0
    misses: int = 0
    fills: int = 0
    writebacks: int = 0
    clean_evictions: int = 0
    invalidations: int = 0

    @property
    def accesses(self) -> int:
        """Total demand accesses."""
        return self.demand_reads + self.demand_writes

    @property
    def hit_rate(self) -> float:
        """Demand hit rate (0 when idle)."""
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def miss_rate(self) -> float:
        """Demand miss rate (0 when idle)."""
        return self.misses / self.accesses if self.accesses else 0.0

    def merge(self, other: "CacheStats") -> None:
        """Accumulate another instance's counters into this one."""
        for name in (
            "demand_reads",
            "demand_writes",
            "hits",
            "misses",
            "fills",
            "writebacks",
            "clean_evictions",
            "invalidations",
        ):
            setattr(self, name, getattr(self, name) + getattr(other, name))


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one demand access or allocation."""

    hit: bool
    #: Line address evicted to make room, or None.
    victim_line: int | None = None
    #: True when the victim was dirty (a write-back leaves this cache).
    victim_dirty: bool = False
    #: The ``aux`` payload the victim carried (policy-specific).
    victim_aux: object = None
    #: False when an allocation was *skipped* because every frame of the
    #: target set is retired (fault degradation) — the line is not
    #: resident and the caller must serve it from the next level.
    filled: bool = True


class Cache:
    """Set-associative, write-back, write-allocate cache.

    Args:
        config: geometry/latency of this level.
        name: label used in error messages and reports.
        index_shift: low line-address bits skipped by set indexing (see
            module docstring).
    """

    def __init__(
        self,
        config: CacheConfig,
        name: str = "",
        *,
        index_shift: int = 0,
        replacement: str = "lru",
    ) -> None:
        if index_shift < 0:
            raise ConfigError("index_shift cannot be negative")
        from repro.cache.replacement import make_replacement

        self.config = config
        self.name = name or config.name
        self.index_shift = index_shift
        self.replacement = replacement
        self._policy = make_replacement(replacement)
        self.stats = CacheStats()
        self.num_sets = config.num_sets
        self._set_mask = self.num_sets - 1
        self._rotation = 0
        #: Per-set live-way limits (None = full associativity everywhere).
        self._way_limits: list[int] | None = None
        self._array = SetAssocArray(self.num_sets, config.assoc)

    # -- address helpers ---------------------------------------------------

    def set_of(self, line: int) -> int:
        """Set index of a line address (including any wear rotation)."""
        return ((line >> self.index_shift) + self._rotation) & self._set_mask

    @property
    def rotation(self) -> int:
        """Current set-index rotation offset (intra-bank wear levelling)."""
        return self._rotation

    def rotate_sets(self, step: int = 1) -> None:
        """Shift the line-to-set mapping by ``step`` sets.

        Physically rehouses every resident line under the new mapping
        (recency order within each new set follows the rehousing scan).
        This is the Start-Gap-style intra-bank wear-levelling primitive:
        hot lines stop camping on the same physical sets.

        Raises:
            ConfigError: with a non-LRU replacement policy (policy state
                is keyed by physical set and would be orphaned).
        """
        if self._policy is not None:
            raise ConfigError(
                f"{self.name}: set rotation requires the native LRU policy"
            )
        if self._way_limits is not None:
            raise ConfigError(
                f"{self.name}: set rotation with retired frames is unsupported"
            )
        if step % self.num_sets == 0:
            return
        entries = [
            (line, payload) for _s, line, payload in self._array.iter_all()
        ]
        self._rotation = (self._rotation + step) & self._set_mask
        self._array = SetAssocArray(self.num_sets, self.config.assoc)
        for line, payload in entries:
            self._array.insert(self.set_of(line), line, payload)

    # -- demand path ---------------------------------------------------------

    def access(self, line: int, is_write: bool) -> AccessResult:
        """Demand read/write of ``line`` with write-allocate on miss."""
        if is_write:
            self.stats.demand_writes += 1
        else:
            self.stats.demand_reads += 1
        set_idx = self.set_of(line)
        entry = self._array.lookup(set_idx, line)
        if entry is not None:
            self.stats.hits += 1
            if self._policy is not None:
                self._policy.on_hit(set_idx, line)
            if is_write:
                entry[_DIRTY] = True
            return AccessResult(hit=True)
        self.stats.misses += 1
        return self._allocate(line, dirty=is_write)

    def probe(self, line: int, *, is_write: bool = False, touch: bool = True) -> bool:
        """Check for ``line`` without allocating on miss.

        A write probe marks the line dirty on hit.  Demand counters are
        updated; the NUCA controller pairs this with :meth:`allocate`.
        """
        if is_write:
            self.stats.demand_writes += 1
        else:
            self.stats.demand_reads += 1
        set_idx = self.set_of(line)
        entry = self._array.lookup(set_idx, line, touch=touch)
        if entry is None:
            self.stats.misses += 1
            return False
        self.stats.hits += 1
        if self._policy is not None and touch:
            self._policy.on_hit(set_idx, line)
        if is_write:
            entry[_DIRTY] = True
        return True

    def allocate(
        self, line: int, *, dirty: bool = False, aux: object = None
    ) -> AccessResult:
        """Fill ``line`` (it must not already be present)."""
        return self._allocate(line, dirty=dirty, aux=aux)

    def _allocate(self, line: int, *, dirty: bool, aux: object = None) -> AccessResult:
        set_idx = self.set_of(line)
        if self._way_limits is not None and self._way_limits[set_idx] <= 0:
            # Every frame of this set is retired: the fill is skipped
            # and the line stays non-resident.
            return AccessResult(hit=False, filled=False)
        self.stats.fills += 1
        if self._policy is None:
            victim = None
            if self._way_limits is not None:
                limit = self._way_limits[set_idx]
                if limit < self.config.assoc:
                    ways = self._array.ways(set_idx)
                    if len(ways) >= limit:
                        victim_tag = next(iter(ways))
                        victim_entry = self._array.invalidate(set_idx, victim_tag)
                        victim = (victim_tag, victim_entry)
            evicted = self._array.insert(set_idx, line, [dirty, aux])
            if victim is None:
                victim = evicted
        else:
            victim = None
            ways = self._array.ways(set_idx)
            if len(ways) >= self.config.assoc:
                victim_tag = self._policy.choose_victim(set_idx, ways)
                victim_entry = self._array.invalidate(set_idx, victim_tag)
                if victim_entry is None:
                    raise SimulationError(
                        f"{self.name}: {self.replacement} chose absent victim"
                    )
                self._policy.on_invalidate(set_idx, victim_tag)
                victim = (victim_tag, victim_entry)
            self._array.insert(set_idx, line, [dirty, aux])
            self._policy.on_insert(set_idx, line)
        if victim is None:
            return AccessResult(hit=False)
        victim_line, victim_entry = victim
        if victim_entry[_DIRTY]:
            self.stats.writebacks += 1
        else:
            self.stats.clean_evictions += 1
        return AccessResult(
            hit=False,
            victim_line=victim_line,
            victim_dirty=victim_entry[_DIRTY],
            victim_aux=victim_entry[_AUX],
        )

    # -- fault degradation ---------------------------------------------------

    def set_way_limits(self, limits) -> list[tuple[int, bool, object]]:
        """Retire frames: cap the live ways of each set (fault injection).

        ``limits`` is a per-set sequence of live-way counts in
        ``[0, assoc]`` (or None to restore full associativity).  Resident
        lines beyond a set's new limit are drained LRU-first and
        returned as ``(line, dirty, aux)`` tuples so the caller can
        write dirty data back and fix up policy metadata.

        Raises:
            ConfigError: with a non-LRU replacement policy (its state is
                keyed by physical way and cannot shrink), or for limits
                of the wrong length/range.
        """
        if limits is None:
            self._way_limits = None
            return []
        if self._policy is not None:
            raise ConfigError(
                f"{self.name}: way limits require the native LRU policy"
            )
        limits = [int(v) for v in limits]
        if len(limits) != self.num_sets:
            raise ConfigError(
                f"{self.name}: {len(limits)} way limits for {self.num_sets} sets"
            )
        if any(v < 0 or v > self.config.assoc for v in limits):
            raise ConfigError(
                f"{self.name}: way limits must be in [0, {self.config.assoc}]"
            )
        self._way_limits = limits
        drained: list[tuple[int, bool, object]] = []
        for set_idx, limit in enumerate(limits):
            ways = self._array.ways(set_idx)
            while len(ways) > limit:
                tag = next(iter(ways))
                entry = self._array.invalidate(set_idx, tag)
                self.stats.invalidations += 1
                drained.append((tag, bool(entry[_DIRTY]), entry[_AUX]))
        return drained

    def way_limit_of(self, set_idx: int) -> int:
        """Live ways of one set (full associativity when no faults)."""
        if self._way_limits is None:
            return self.config.assoc
        return self._way_limits[set_idx]

    def live_frames(self) -> int:
        """Usable line frames under the current way limits."""
        if self._way_limits is None:
            return self.num_sets * self.config.assoc
        return sum(self._way_limits)

    def drain(self) -> list[tuple[int, bool, object]]:
        """Drop every line, returning ``(line, dirty, aux)`` tuples.

        Like :meth:`flush` but preserves the ``aux`` payloads so mapping
        policies can clean up per-line metadata (used when a whole bank
        dies).  Dirty lines are counted as write-backs.
        """
        drained = []
        for _set_idx, line, entry in self._array.flush():
            if entry[_DIRTY]:
                self.stats.writebacks += 1
            drained.append((line, bool(entry[_DIRTY]), entry[_AUX]))
        return drained

    # -- maintenance ---------------------------------------------------------

    def contains(self, line: int) -> bool:
        """Presence check that does not perturb LRU order or stats."""
        return self._array.lookup(self.set_of(line), line, touch=False) is not None

    def is_dirty(self, line: int) -> bool:
        """True when the line is present and dirty."""
        entry = self._array.lookup(self.set_of(line), line, touch=False)
        return bool(entry is not None and entry[_DIRTY])

    def aux_of(self, line: int) -> object:
        """The ``aux`` payload of a resident line (None when absent)."""
        entry = self._array.lookup(self.set_of(line), line, touch=False)
        return None if entry is None else entry[_AUX]

    def set_aux(self, line: int, aux: object) -> None:
        """Replace the ``aux`` payload of a resident line."""
        entry = self._array.lookup(self.set_of(line), line, touch=False)
        if entry is None:
            raise SimulationError(f"{self.name}: set_aux on absent line {line:#x}")
        entry[_AUX] = aux

    def mark_dirty(self, line: int) -> None:
        """Mark a resident line dirty (coherence write-back absorption)."""
        entry = self._array.lookup(self.set_of(line), line, touch=False)
        if entry is None:
            raise SimulationError(f"{self.name}: mark_dirty on absent line {line:#x}")
        entry[_DIRTY] = True

    def invalidate(self, line: int) -> tuple[bool, bool]:
        """Remove ``line``; returns (was_present, was_dirty)."""
        set_idx = self.set_of(line)
        entry = self._array.invalidate(set_idx, line)
        if entry is None:
            return False, False
        if self._policy is not None:
            self._policy.on_invalidate(set_idx, line)
        self.stats.invalidations += 1
        return True, bool(entry[_DIRTY])

    def flush(self) -> list[tuple[int, bool]]:
        """Drop every line, returning ``(line, dirty)`` pairs.

        Dirty lines are counted as write-backs (they would stream to the
        next level in hardware).
        """
        drained = []
        for _set_idx, line, entry in self._array.flush():
            if entry[_DIRTY]:
                self.stats.writebacks += 1
            drained.append((line, bool(entry[_DIRTY])))
        return drained

    @property
    def has_way_limits(self) -> bool:
        """True when fault retirement has capped any set's live ways."""
        return self._way_limits is not None

    def occupancy(self) -> int:
        """Valid lines currently resident."""
        return self._array.total_occupancy()

    def resident_lines(self) -> list[int]:
        """All resident line addresses (test/debug helper)."""
        return [line for _s, line, _e in self._array.iter_all()]
