"""The Re-NUCA hybrid mapping policy — Section IV.

Placement rule:

* a fill predicted **critical** is placed with the R-NUCA mapping, in the
  4-bank cluster at most one hop from the requesting core;
* a fill predicted **non-critical** is placed with the S-NUCA mapping,
  spread over all 16 banks — distributing both the fill itself and every
  future write-back of the line.

The *current* mapping of each line is remembered in the requesting
core's enhanced TLB (one Mapping Bit per line of each page): lookups read
the bit to know which mapping function locates the line, allocations set
it to the prediction, and LLC evictions reset it to 0.  A line therefore
keeps one mapping for its whole on-chip lifetime, exactly as the paper
specifies ("since a cache line does not change the criticality status in
its on-chip lifetime, we do not need to update the MBV bits ... unless
the cache line is to be evicted").

Because a line is first brought in "assumed not critical" when its PC has
no predictor history, Re-NUCA biases toward lifetime first and earns back
latency once the predictor warms up — the behaviour behind the paper's
"best of both worlds" claim.
"""

from __future__ import annotations

from repro.common.errors import SimulationError
from repro.config import SystemConfig
from repro.core.tlb import EnhancedTlb
from repro.noc.mesh import Mesh
from repro.nuca.policies import MappingPolicy
from repro.nuca.rnuca import RNucaPolicy
from repro.nuca.snuca import SNucaPolicy


class ReNucaPolicy(MappingPolicy):
    """Hybrid S-NUCA / R-NUCA placement keyed on predicted criticality."""

    name = "Re-NUCA"
    consumes_criticality = True

    def __init__(self, config: SystemConfig, mesh: Mesh) -> None:
        self.config = config
        self._snuca = SNucaPolicy(config.num_banks)
        self._rnuca = RNucaPolicy(mesh, config.rnuca_cluster_size)
        self._tlbs = [
            EnhancedTlb(config.tlb, line_bytes=config.l3_bank.line_bytes)
            for _ in range(config.num_cores)
        ]
        self.critical_allocations = 0
        self.noncritical_allocations = 0

    @property
    def tlbs(self) -> list[EnhancedTlb]:
        """Each core's enhanced TLB.

        The replay kernel keeps one Mapping Bit per line instead, and
        drops the TLBs when it warms the LLC (``_tlbs`` None): reading
        them then raises until :meth:`reset`.  The per-record methods
        below read the list directly.
        """
        if self._tlbs is None:
            raise SimulationError(
                "enhanced-TLB state exists only on the reference replay path "
                "(REPRO_KERNEL=0 or telemetry); the replay kernel keeps one "
                "Mapping Bit per line"
            )
        return self._tlbs

    # -- MappingPolicy interface ------------------------------------------------

    def locate(self, core: int, line: int) -> int:
        """Read the core's Mapping Bit to pick the mapping function."""
        if self._tlbs[core].mapping_bit(line):
            return self._rnuca.bank_of(core, line)
        return self._snuca.locate(core, line)

    def place(self, core: int, line: int, critical: bool) -> int:
        """Critical fills go near the core, non-critical fills spread out."""
        if critical:
            return self._rnuca.bank_of(core, line)
        return self._snuca.place(core, line, critical)

    def writeback_bank(self, core: int, line: int) -> int:
        """A write-back re-allocation keeps the line's recorded mapping."""
        return self.locate(core, line)

    def on_allocate(self, core: int, line: int, bank: int, critical: bool) -> None:
        """Record the mapping choice in the owner's enhanced TLB."""
        self._tlbs[core].set_mapping_bit(line, critical)
        if critical:
            self.critical_allocations += 1
        else:
            self.noncritical_allocations += 1

    def on_evict(self, line: int, bank: int, aux: object) -> None:
        """LLC eviction resets the line's Mapping Bit (Section IV-C).

        ``aux`` carries the owning core recorded at fill time; without it
        the bit could not be found (line address spaces are per-core).
        """
        if not isinstance(aux, tuple) or len(aux) != 2:
            raise SimulationError(f"Re-NUCA eviction without owner aux for {line:#x}")
        owner, _critical = aux
        self._tlbs[owner].clear_mapping_bit(line)

    def reset_counters(self) -> None:
        """Zero the allocation-mix counters (after warm-up prefill)."""
        self.critical_allocations = 0
        self.noncritical_allocations = 0

    def reset(self) -> None:
        """Fresh TLBs and counters (between workloads)."""
        self._tlbs = [
            EnhancedTlb(self.config.tlb, line_bytes=self.config.l3_bank.line_bytes)
            for _ in range(self.config.num_cores)
        ]
        self.critical_allocations = 0
        self.noncritical_allocations = 0

    # -- telemetry ------------------------------------------------------------------

    def attach_telemetry(self, telemetry) -> None:
        """Register Re-NUCA gauges and wire MBV-flip tracing into the TLBs.

        Gauges cover the placement mix (critical vs. spread fills) and
        the aggregate enhanced-TLB behaviour (hit rate, MBV write-back /
        restore traffic — the mechanism's storage cost made visible).
        """
        self.telemetry = telemetry
        registry = telemetry.registry
        registry.gauge(
            "renuca.critical_allocations", lambda: self.critical_allocations
        )
        registry.gauge(
            "renuca.noncritical_allocations",
            lambda: self.noncritical_allocations,
        )
        registry.gauge("renuca.critical_fraction", lambda: self.critical_fraction)
        registry.gauge(
            "tlb.lookups", lambda: sum(t.stats.lookups for t in self.tlbs)
        )
        registry.gauge("tlb.hits", lambda: sum(t.stats.hits for t in self.tlbs))
        registry.gauge(
            "tlb.mbv_writebacks",
            lambda: sum(t.stats.mbv_writebacks for t in self.tlbs),
        )
        registry.gauge(
            "tlb.mbv_restores",
            lambda: sum(t.stats.mbv_restores for t in self.tlbs),
        )
        if telemetry.trace is not None:
            for core, tlb in enumerate(self.tlbs):
                tlb.attach_trace(telemetry.trace, core=core)

    # -- reporting ------------------------------------------------------------------

    @property
    def critical_fraction(self) -> float:
        """Share of fills that went through the R-NUCA mapping."""
        total = self.critical_allocations + self.noncritical_allocations
        return self.critical_allocations / total if total else 0.0

    def storage_overhead_bytes(self) -> int:
        """Extra state of the mechanism: MBV bits across all TLBs.

        64 entries x 64 bits = 512 B per TLB instance; the paper doubles
        it for L1I+L1D (1 KB/core, 16 KB for the machine).  We model the
        data-side instance and report the paper's full figure.
        """
        lines_per_page = self.config.tlb.page_bytes // self.config.l3_bank.line_bytes
        per_tlb = self.config.tlb.entries * lines_per_page // 8
        return 2 * per_tlb * self.config.num_cores
