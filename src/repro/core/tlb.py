"""Enhanced TLB with per-line Mapping Bit Vectors — Section IV-C.

Each TLB entry covers one 4-KB page and is augmented with a 64-bit
Mapping Bit Vector (MBV): bit *i* records how line *i* of the page is
currently mapped in the LLC (0 = S-NUCA / non-critical, 1 = R-NUCA /
critical).  The vector is consulted on every L2 miss so the controller
knows which mapping function locates the line, and updated when a line is
allocated (to the predicted criticality) or evicted from the LLC (reset
to 0, as the paper requires).

The paper leaves the fate of MBV state on a TLB *entry* eviction
unspecified; we write the vector back to a page-table-side backing store
and restore it on refill (one extra PTE field), because silently zeroing
it would strand R-NUCA-resident lines where no lookup can find them.
This choice is recorded in DESIGN.md; the write-back/refill traffic is
counted in :class:`TlbStats` so its cost is visible.

Geometry follows the paper: 64 entries, 8-way set-associative, per L1I
and L1D (we model the data-side instance; 64 bits x 64 entries = 512 B
of MBV state per instance, 1 KB per core).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.lru import SetAssocArray
from repro.common.errors import SimulationError
from repro.common.units import log2_exact
from repro.config import TlbConfig


@dataclass
class TlbStats:
    """Enhanced-TLB event counters."""

    lookups: int = 0
    hits: int = 0
    refills: int = 0
    evictions: int = 0
    mbv_writebacks: int = 0
    mbv_restores: int = 0

    @property
    def hit_rate(self) -> float:
        """TLB hit rate over lookups."""
        return self.hits / self.lookups if self.lookups else 0.0


class EnhancedTlb:
    """One core's data-side enhanced TLB.

    The interface is line-address based (the simulator's currency); the
    TLB internally splits a line address into page number and
    line-in-page index.

    ``lines_per_page`` is fixed at 64 for the default 4-KB page / 64-B
    line geometry but derives from the config so alternative geometries
    stay testable.
    """

    def __init__(self, config: TlbConfig | None = None, *, line_bytes: int = 64) -> None:
        self.config = config or TlbConfig()
        self.lines_per_page = self.config.page_bytes // line_bytes
        self._line_shift = log2_exact(self.lines_per_page)
        self._line_mask = self.lines_per_page - 1
        self.stats = TlbStats()
        self._array = SetAssocArray(self.config.num_sets, self.config.assoc)
        self._set_mask = self.config.num_sets - 1
        # Page-table backing store for MBVs of non-resident pages.
        self._backing: dict[int, int] = {}
        # Optional telemetry: an EventTrace receiving tlb.mbv_flip events
        # (None keeps the mapping-bit paths free of any tracing work).
        self._trace = None
        self._core: int | None = None

    def attach_trace(self, trace, *, core: int | None = None) -> None:
        """Emit ``tlb.mbv_flip`` events (bit transitions) to ``trace``.

        ``core`` labels the events with the owning core's id.  Pass
        ``None`` to detach.
        """
        self._trace = trace
        self._core = core

    # -- address helpers -------------------------------------------------------

    def page_of(self, line: int) -> int:
        """Line address -> page number."""
        return line >> self._line_shift

    def line_index(self, line: int) -> int:
        """Line address -> bit index within the page's MBV."""
        return line & self._line_mask

    # -- the MBV protocol --------------------------------------------------------

    def mapping_bit(self, line: int) -> bool:
        """Read the mapping bit for ``line`` (True = R-NUCA / critical).

        Touches the TLB (counts a lookup, refills on miss) because the
        hardware reads the MBV from the TLB entry during address
        translation.
        """
        mbv_ref = self._touch(self.page_of(line))
        return bool((mbv_ref[0] >> self.line_index(line)) & 1)

    def set_mapping_bit(self, line: int, critical: bool) -> None:
        """Record the mapping used when ``line`` was allocated in the LLC."""
        page = self.page_of(line)
        mbv_ref = self._touch(page, count_lookup=False)
        bit = 1 << self.line_index(line)
        if self._trace is not None and bool(mbv_ref[0] & bit) != critical:
            self._trace.emit(
                "tlb.mbv_flip",
                core=self._core, page=page,
                line_index=self.line_index(line), value=critical,
            )
        if critical:
            mbv_ref[0] |= bit
        else:
            mbv_ref[0] &= ~bit

    def clear_mapping_bit(self, line: int) -> None:
        """Reset the bit when ``line`` is evicted from the LLC.

        The eviction may belong to a page whose TLB entry is gone; the
        backing store is updated directly in that case (the hardware
        analogue is the PTE update on the eventual writeback path).
        """
        page = self.page_of(line)
        bit = 1 << self.line_index(line)
        set_idx = page & self._set_mask
        entry = self._array.lookup(set_idx, page, touch=False)
        if entry is not None:
            if self._trace is not None and entry[0] & bit:
                self._trace.emit(
                    "tlb.mbv_flip",
                    core=self._core, page=page,
                    line_index=self.line_index(line), value=False,
                )
            entry[0] &= ~bit
        elif page in self._backing:
            if self._trace is not None and self._backing[page] & bit:
                self._trace.emit(
                    "tlb.mbv_flip",
                    core=self._core, page=page,
                    line_index=self.line_index(line), value=False,
                )
            self._backing[page] &= ~bit
            if not self._backing[page]:
                del self._backing[page]

    # -- internals ----------------------------------------------------------------

    def _touch(self, page: int, *, count_lookup: bool = True) -> list[int]:
        """Return the (mutable) MBV holder for ``page``, refilling on miss."""
        if count_lookup:
            self.stats.lookups += 1
        set_idx = page & self._set_mask
        entry = self._array.lookup(set_idx, page)
        if entry is not None:
            if count_lookup:
                self.stats.hits += 1
            return entry
        # Refill: restore the MBV from the page table.
        self.stats.refills += 1
        restored = self._backing.pop(page, 0)
        if restored:
            self.stats.mbv_restores += 1
        holder = [restored]
        victim = self._array.insert(set_idx, page, holder)
        if victim is not None:
            victim_page, victim_entry = victim
            self.stats.evictions += 1
            if victim_entry[0]:
                self._backing[victim_page] = victim_entry[0]
                self.stats.mbv_writebacks += 1
        return holder

    # -- inspection -----------------------------------------------------------------

    def resident_pages(self) -> list[int]:
        """Pages currently holding a TLB entry (test helper)."""
        return [page for _s, page, _e in self._array.iter_all()]

    def mbv_of_page(self, page: int) -> int:
        """Full 64-bit MBV of a page, wherever it currently lives."""
        set_idx = page & self._set_mask
        entry = self._array.lookup(set_idx, page, touch=False)
        if entry is not None:
            return entry[0]
        return self._backing.get(page, 0)

    def check_invariants(self) -> None:
        """Backing store must never shadow a resident page."""
        for page in self.resident_pages():
            if page in self._backing:
                raise SimulationError(
                    f"page {page:#x} resident in TLB but also in backing store"
                )
