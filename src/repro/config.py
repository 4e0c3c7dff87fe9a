"""System configuration (the paper's Table I) as validated dataclasses.

:func:`baseline_config` returns the exact Table I machine: 16 OoO cores at
2.4 GHz with 128-entry ROBs, 32 KB 4-way L1s, 256 KB 8-way private L2s, a
32 MB 16-bank 16-way ReRAM L3 on a 4x4 mesh, and DDR3-like main memory.
The three sensitivity configurations of Section V-C are provided as
variants (:func:`sensitivity_l2_128k`, :func:`sensitivity_l3_1m`,
:func:`sensitivity_rob_168`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, replace

from repro.common.addr import LINE_BYTES, PAGE_BYTES
from repro.common.errors import ConfigError
from repro.common.units import GHZ, KIB, MIB, is_power_of_two


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level."""

    size_bytes: int
    assoc: int
    latency: int
    line_bytes: int = LINE_BYTES
    name: str = "cache"

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.size_bytes % (self.assoc * self.line_bytes):
            raise ConfigError(
                f"{self.name}: size {self.size_bytes} not divisible by "
                f"assoc*line ({self.assoc}*{self.line_bytes})"
            )
        if self.assoc <= 0:
            raise ConfigError(f"{self.name}: associativity must be positive")
        if self.latency <= 0:
            raise ConfigError(f"{self.name}: latency must be positive")
        if not is_power_of_two(self.num_sets):
            raise ConfigError(
                f"{self.name}: number of sets must be a power of two, "
                f"got {self.num_sets}"
            )

    @property
    def num_sets(self) -> int:
        """Number of sets."""
        return self.size_bytes // (self.assoc * self.line_bytes)

    @property
    def num_lines(self) -> int:
        """Total number of line frames."""
        return self.size_bytes // self.line_bytes


@dataclass(frozen=True)
class CoreConfig:
    """Out-of-order core parameters."""

    clock_hz: float = 2.4 * GHZ
    rob_entries: int = 128
    issue_width: int = 4
    commit_width: int = 4

    def __post_init__(self) -> None:
        if self.clock_hz <= 0:
            raise ConfigError("core clock must be positive")
        if self.rob_entries < 8:
            raise ConfigError("ROB must have at least 8 entries")
        if self.issue_width <= 0 or self.commit_width <= 0:
            raise ConfigError("issue/commit width must be positive")


@dataclass(frozen=True)
class NocConfig:
    """Mesh network-on-chip parameters.

    ``hop_cycles`` is the per-hop router+link traversal cost; a request to a
    bank ``h`` hops away pays ``2 * h * hop_cycles`` round trip on top of
    the bank access latency.
    """

    mesh_cols: int = 4
    mesh_rows: int = 4
    hop_cycles: int = 16

    def __post_init__(self) -> None:
        if self.mesh_cols <= 0 or self.mesh_rows <= 0:
            raise ConfigError("mesh dimensions must be positive")
        if self.hop_cycles < 0:
            raise ConfigError("hop latency cannot be negative")

    @property
    def num_nodes(self) -> int:
        """Total mesh node count (= cores = L3 banks in Table I)."""
        return self.mesh_cols * self.mesh_rows


@dataclass(frozen=True)
class MemoryConfig:
    """Main-memory model parameters (DDR3 + FR-FCFS approximation).

    FR-FCFS exploits row-buffer locality: a request to the currently
    open row of a DRAM bank pays ``row_hit_latency_cycles``; any other
    request pays the full ``latency_cycles`` (precharge + activate).
    Sequential streams therefore see far lower effective latency than
    pointer chases — the behaviour that separates bandwidth-bound from
    latency-bound applications.
    """

    latency_cycles: int = 240
    row_hit_latency_cycles: int = 110
    #: Aggregate service rate of the 4-channel DDR3 system (Table I):
    #: ~0.2 lines/cycle per channel.
    bandwidth_lines_per_cycle: float = 0.8
    #: Cache lines per DRAM row (8 KB row / 64 B line).
    lines_per_row: int = 128
    #: Independent DRAM banks (4 channels x 2 ranks x 8 banks).
    dram_banks: int = 64

    def __post_init__(self) -> None:
        if self.latency_cycles <= 0:
            raise ConfigError("memory latency must be positive")
        if not (0 < self.row_hit_latency_cycles <= self.latency_cycles):
            raise ConfigError("row-hit latency must be in (0, latency]")
        if self.bandwidth_lines_per_cycle <= 0:
            raise ConfigError("memory bandwidth must be positive")
        if not is_power_of_two(self.lines_per_row):
            raise ConfigError("lines per row must be a power of two")
        if not is_power_of_two(self.dram_banks):
            raise ConfigError("DRAM bank count must be a power of two")


@dataclass(frozen=True)
class ReRamConfig:
    """ReRAM technology parameters for the L3 banks.

    ``cell_endurance`` is the per-cell write limit; the paper uses 1e11
    ("we consider a ReRAM cache line to wear out beyond 1e11 writes").
    ``write_penalty_cycles`` is the extra latency of a ReRAM write over a
    read (ReRAM's long SET/RESET).
    """

    cell_endurance: float = 1e11
    write_penalty_cycles: int = 16
    #: Residual intra-bank write imbalance: hot sets inside a bank absorb
    #: more writes than cold ones (the i2wap/EqualChance problem, which
    #: the paper treats as orthogonal), so a bank's capacity-loss point
    #: arrives earlier than perfectly uniform wear would suggest.
    intra_bank_wear_spread: float = 0.5

    def __post_init__(self) -> None:
        if self.cell_endurance <= 0:
            raise ConfigError("cell endurance must be positive")
        if self.write_penalty_cycles < 0:
            raise ConfigError("write penalty cannot be negative")
        if not (0 < self.intra_bank_wear_spread <= 1.0):
            raise ConfigError("intra-bank wear spread must be in (0, 1]")


@dataclass(frozen=True)
class FaultConfig:
    """End-of-life fault-injection parameters (the robustness testbed).

    This section is *not* part of :class:`SystemConfig`: faults describe a
    point in the cache's service life, not the machine, so the same Table I
    system is swept over many :class:`FaultConfig` instances (see
    ``repro.experiments.endoflife``).

    ``age_fraction`` is the fraction of the nominal cell endurance the
    *average* bank has consumed; individual banks age faster or slower in
    proportion to their share of the write traffic, and frames inside a
    bank die spread over ``[wear_spread, 1.0]`` of consumed endurance
    (the residual intra-bank imbalance of ``ReRamConfig``).  Ages above
    1.0 model operation past the rated endurance.

    ``bank_failures`` schedules whole-bank (peripheral-circuit) failures:
    ``(bank_id, fail_age)`` pairs; the bank is fully dead once
    ``age_fraction >= fail_age``.

    ``transient_rate`` is the per-LLC-read probability of a transient
    (soft) fault: the read data is corrupt, the line is dropped and
    refetched from memory.

    ``remap_penalty_cycles`` is the extra latency of every access
    redirected away from a dead bank (the remap table lookup).

    ``fault_seed`` decouples the fault-site draw from the experiment
    seed; ``None`` reuses the run seed (the default, so one ``--seed``
    reproduces the whole run, faults included).
    """

    age_fraction: float = 0.0
    transient_rate: float = 0.0
    bank_failures: tuple[tuple[int, float], ...] = ()
    remap_penalty_cycles: int = 24
    fault_seed: int | None = None

    def __post_init__(self) -> None:
        if self.age_fraction < 0:
            raise ConfigError("age fraction cannot be negative")
        if not (0 <= self.transient_rate < 1):
            raise ConfigError("transient fault rate must be in [0, 1)")
        if self.remap_penalty_cycles < 0:
            raise ConfigError("remap penalty cannot be negative")
        for entry in self.bank_failures:
            if not (isinstance(entry, tuple) and len(entry) == 2):
                raise ConfigError(
                    f"bank failure entries must be (bank, fail_age) pairs, "
                    f"got {entry!r}"
                )
            bank, fail_age = entry
            if int(bank) < 0:
                raise ConfigError(f"bank id cannot be negative: {bank}")
            if float(fail_age) < 0:
                raise ConfigError(f"failure age cannot be negative: {fail_age}")

    @property
    def active(self) -> bool:
        """True when this configuration injects any fault at all."""
        return (
            self.age_fraction > 0
            or self.transient_rate > 0
            or bool(self.failed_banks())
        )

    def failed_banks(self) -> frozenset[int]:
        """Banks whose scheduled whole-bank failure has already struck."""
        return frozenset(
            int(bank)
            for bank, fail_age in self.bank_failures
            if self.age_fraction >= float(fail_age)
        )


@dataclass(frozen=True)
class TlbConfig:
    """Enhanced-TLB geometry (Section IV-C / Figure 10)."""

    entries: int = 64
    assoc: int = 8
    page_bytes: int = PAGE_BYTES

    def __post_init__(self) -> None:
        if self.entries <= 0 or self.entries % self.assoc:
            raise ConfigError("TLB entries must be a multiple of associativity")
        if not is_power_of_two(self.entries // self.assoc):
            raise ConfigError("TLB set count must be a power of two")

    @property
    def num_sets(self) -> int:
        """Number of TLB sets."""
        return self.entries // self.assoc


@dataclass(frozen=True)
class CriticalityConfig:
    """Criticality-predictor parameters (Section IV-B).

    ``block_cycles`` is the minimum head-of-ROB stall that counts as
    "blocking": real commit engines absorb a few cycles of skew by
    committing at full width after a stall, so only stalls beyond a
    pipeline-refill's worth of cycles are architecturally visible.  This
    is what separates bandwidth-bound streams (many tiny stalls) from
    latency-bound chases (long stalls) — the distinction the paper's
    Figures 8/9 rely on (~50% of fetched blocks / LLC writes
    non-critical at the 3% threshold).
    """

    threshold_percent: float = 3.0
    table_entries: int = 4096
    block_cycles: float = 24.0

    def __post_init__(self) -> None:
        if not (0 < self.threshold_percent <= 100):
            raise ConfigError("criticality threshold must be in (0, 100]")
        if self.table_entries <= 0:
            raise ConfigError("CPT must have at least one entry")
        if self.block_cycles < 1:
            raise ConfigError("block threshold must be at least one cycle")


#: Mirrors ``repro.cache.replacement`` (kept literal to avoid an import
#: cycle — ``repro.cache`` consumes :class:`CacheConfig`).
_L3_REPLACEMENT_NAMES = ("lru", "random", "srrip", "clean-first")


@dataclass(frozen=True)
class SystemConfig:
    """Full Table I machine description."""

    num_cores: int = 16
    core: CoreConfig = field(default_factory=CoreConfig)
    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig(32 * KIB, 4, 2, name="L1")
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(256 * KIB, 8, 5, name="L2")
    )
    l3_bank: CacheConfig = field(
        default_factory=lambda: CacheConfig(2 * MIB, 16, 100, name="L3-bank")
    )
    noc: NocConfig = field(default_factory=NocConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    reram: ReRamConfig = field(default_factory=ReRamConfig)
    tlb: TlbConfig = field(default_factory=TlbConfig)
    criticality: CriticalityConfig = field(default_factory=CriticalityConfig)
    rnuca_cluster_size: int = 4
    #: Extra cycles of every Naive-scheme LLC access: a 32 MB LLC needs a
    #: ~512k-entry directory whose lookup serialises the access path —
    #: one of the two reasons the paper calls the oracle impractical.
    naive_directory_penalty: int = 200
    #: Replacement policy of every L3 bank (see ``repro.cache.replacement``).
    l3_replacement: str = "lru"
    #: Uniform per-set way limit applied to every L3 bank (``None`` uses
    #: the full associativity).  Models a capacity-throttled LLC, the knob
    #: the design-space search sweeps against wear/energy.
    l3_way_limit: int | None = None

    def __post_init__(self) -> None:
        if self.num_cores != self.noc.num_nodes:
            raise ConfigError(
                f"noc.mesh_cols*mesh_rows: Table I systems pair one core with "
                f"one bank per mesh node: {self.num_cores} cores vs "
                f"{self.noc.mesh_cols}x{self.noc.mesh_rows}="
                f"{self.noc.num_nodes} nodes"
            )
        if not is_power_of_two(self.num_cores):
            raise ConfigError("num_cores: core count must be a power of two")
        if not is_power_of_two(self.rnuca_cluster_size):
            raise ConfigError(
                "rnuca_cluster_size: R-NUCA cluster size must be a power of two"
            )
        if self.rnuca_cluster_size > self.num_cores:
            raise ConfigError(
                f"rnuca_cluster_size: cluster ({self.rnuca_cluster_size}) "
                f"cannot exceed the bank count ({self.num_banks})"
            )
        if self.num_banks % self.rnuca_cluster_size:
            raise ConfigError(
                f"rnuca_cluster_size: cluster size "
                f"({self.rnuca_cluster_size}) must divide the bank count "
                f"({self.num_banks})"
            )
        if self.naive_directory_penalty < 0:
            raise ConfigError(
                "naive_directory_penalty: directory penalty cannot be negative"
            )
        if self.l3_replacement not in _L3_REPLACEMENT_NAMES:
            raise ConfigError(
                f"l3_replacement: unknown policy {self.l3_replacement!r}; "
                f"known: {_L3_REPLACEMENT_NAMES}"
            )
        if self.l3_way_limit is not None:
            if not (1 <= self.l3_way_limit <= self.l3_bank.assoc):
                raise ConfigError(
                    f"l3_way_limit: way limit ({self.l3_way_limit}) must be "
                    f"in [1, l3_bank.assoc={self.l3_bank.assoc}]"
                )
            if self.l3_replacement != "lru":
                raise ConfigError(
                    "l3_way_limit: way limits require l3_replacement='lru' "
                    f"(got {self.l3_replacement!r})"
                )
        line = self.l1.line_bytes
        if not (line == self.l2.line_bytes == self.l3_bank.line_bytes):
            raise ConfigError("l1/l2/l3_bank.line_bytes: all cache levels "
                              "must share one line size")

    @property
    def num_banks(self) -> int:
        """Number of L3 banks (one per core in Table I)."""
        return self.num_cores

    @property
    def l3_total_bytes(self) -> int:
        """Aggregate L3 capacity."""
        return self.l3_bank.size_bytes * self.num_banks

    def describe(self) -> str:
        """Render the configuration as a Table I-style text block."""
        rows = [
            ("Cores", f"{self.num_cores} cores @ {self.core.clock_hz / GHZ:.1f}GHz, "
                      f"out-of-order"),
            ("ROB entries", str(self.core.rob_entries)),
            ("NoC", f"{self.noc.mesh_cols}x{self.noc.mesh_rows} Mesh"),
            ("L1I/L1D Cache", f"{self.l1.size_bytes // KIB}KB, {self.l1.assoc}-way, "
                              f"{self.l1.latency}-cycle, {self.l1.line_bytes}B line"),
            ("L2 Cache", f"{self.l2.size_bytes // KIB}KB (private), "
                         f"{self.l2.assoc}-way, {self.l2.latency}-cycle"),
            ("L3 Cache", f"{self.l3_bank.size_bytes // MIB}MB per bank, "
                         f"{self.l3_total_bytes // MIB}MB total, "
                         f"{self.l3_bank.assoc}-way, {self.l3_bank.latency}-cycle"),
            ("Coherence", "directory MESI (not modelled: the mixes share no data)"),
            ("Memory", f"{self.memory.latency_cycles}-cycle fixed latency, "
                       f"{self.memory.bandwidth_lines_per_cycle} lines/cycle"),
            ("ReRAM endurance", f"{self.reram.cell_endurance:.0e} writes/cell"),
        ]
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"{k:<{width}}  {v}" for k, v in rows)


def baseline_config(**overrides: object) -> SystemConfig:
    """The Table I machine; keyword overrides replace top-level fields."""
    return replace(SystemConfig(), **overrides) if overrides else SystemConfig()


def sensitivity_l2_128k() -> SystemConfig:
    """Section V-C variant: 128 KB private L2 (more L2 misses/writebacks)."""
    return replace(
        SystemConfig(), l2=CacheConfig(128 * KIB, 8, 5, name="L2")
    )


def sensitivity_l3_1m() -> SystemConfig:
    """Section V-C variant: 1 MB L3 banks (16 MB total, more L3 misses)."""
    return replace(
        SystemConfig(), l3_bank=CacheConfig(1 * MIB, 16, 100, name="L3-bank")
    )


def sensitivity_rob_168() -> SystemConfig:
    """Section V-C variant: 168-entry ROB (fewer head-of-ROB stalls)."""
    return replace(
        SystemConfig(), core=CoreConfig(rob_entries=168)
    )


def scaled_config(base: SystemConfig, *, cores: int) -> SystemConfig:
    """Shrink a configuration to ``cores`` cores (square-ish mesh).

    Used by tests and the quickstart example to build tiny but structurally
    complete systems (e.g. 4 cores on a 2x2 mesh).
    """
    if not is_power_of_two(cores):
        raise ConfigError("core count must be a power of two")
    cols = 1 << ((cores.bit_length() - 1 + 1) // 2)
    rows = cores // cols
    return replace(
        base,
        num_cores=cores,
        noc=replace(base.noc, mesh_cols=cols, mesh_rows=rows),
        rnuca_cluster_size=min(base.rnuca_cluster_size, cores),
    )


def config_as_dict(config: SystemConfig) -> dict:
    """Flatten a configuration into plain nested dicts (for reports)."""
    return dataclasses.asdict(config)


def _flatten_scalars(prefix: str, value: object, out: list) -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            path = f"{prefix}.{key}" if prefix else str(key)
            _flatten_scalars(path, value[key], out)
    elif isinstance(value, (list, tuple)):
        for idx, item in enumerate(value):
            _flatten_scalars(f"{prefix}[{idx}]", item, out)
    else:
        out.append(prefix)
        out.append(value)


def full_signature(config: SystemConfig) -> tuple:
    """Every field of ``config`` as a flat ``(path, value, ...)`` tuple.

    Unlike :func:`repro.sim.calibrate.config_signature` (which covers only
    the fields stage 1 depends on, so per-app traces stay shared across
    LLC-scheme variations), this signature covers the *whole* machine and
    is what :class:`repro.jobs.spec.JobSpec` uses as cache/journal
    identity: two search points differing in any config field — cluster
    size, replacement policy, way limits, ReRAM timing — must never alias
    to the same cached stage-2 result.

    The tuple holds only JSON scalars (str/int/float/None) so it survives
    a JSON round-trip bit-identically, and it is memoized on the (frozen)
    config instance.
    """
    cached = getattr(config, "_full_signature", None)
    if cached is None:
        out: list = []
        _flatten_scalars("", config_as_dict(config), out)
        cached = tuple(out)
        object.__setattr__(config, "_full_signature", cached)
    return cached
