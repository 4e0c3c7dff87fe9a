"""The two-stage experiment runner.

Stage 1 — per application, per upper-hierarchy configuration — is
cache-managed by :class:`Stage1Cache` (calibration probe + full run).
Stage 2 — :func:`run_workload` — merges the per-core L3 reference
streams of a 16-app mix by timestamp and drives one NUCA LLC instance,
yielding a :class:`~repro.sim.metrics.WorkloadSchemeResult`.
:func:`run_matrix` sweeps workloads x schemes, which is the shape of
every headline experiment in the paper.

Instruction budgets default to ``REPRO_INSTRUCTIONS`` (environment
variable) per core; the paper used 100 M instructions per core after
warm-up — lifetime and IPC are rate-based, so a few hundred thousand
instructions per core reproduce the shapes at laptop scale.
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import ReproError
from repro.config import FaultConfig, SystemConfig, baseline_config
from repro.core.criticality import CriticalityPredictor, bind_cpt_telemetry
from repro.cpu.core import AppSimulator, Stage1Result
from repro.faults.injector import FaultInjector
from repro.mem.model import MainMemory
from repro.noc.mesh import Mesh
from repro.nuca import NucaLLC, make_policy
from repro.nuca.kernel import ArrayBanks, kernel_fallback_reason, warm_state
from repro.nuca.kernel import replay as kernel_replay
from repro.obs.spans import DISABLED_SPANS
from repro.reram.endurance import lifetimes_for_banks
from repro.reram.energy import energy_of_result
from repro.reram.wear import WearTracker
from repro.sim.calibrate import calibrated_base_cpi, config_signature
from repro.sim.metrics import MatrixResult, WorkloadSchemeResult
from repro.telemetry import DISABLED_PROFILER, Telemetry
from repro.telemetry.intervals import IntervalSeries
from repro.trace.workloads import Workload

#: Per-core instruction budget when the caller does not specify one.
DEFAULT_INSTRUCTIONS: int = int(os.environ.get("REPRO_INSTRUCTIONS", "300000"))

#: Per-core address-space stride: each core's lines live in a disjoint
#: 2**44-line region.
CORE_ADDRESS_STRIDE_SHIFT = 44


def _core_base(core: int) -> int:
    """Base line address of one core's private address space.

    Besides the disjoint high bits, each core gets a large odd low-bit
    scramble: physical page allocation decorrelates different processes'
    addresses, so two cores running the *same* binary must not have
    congruent bank/set bits (they would otherwise collide in exactly the
    same LLC sets, which no real multiprogrammed system does).
    """
    return ((core + 1) << CORE_ADDRESS_STRIDE_SHIFT) + core * 40_503_551


#: Default :class:`Stage1Cache` capacity.  A stage-1 result retains the
#: full per-app L3 reference stream (several MB at paper-scale budgets),
#: so long sweeps over many apps/configurations must not grow the memo
#: without bound; 128 entries comfortably covers the 22-app pool across
#: a handful of configurations while capping worst-case memory.
DEFAULT_STAGE1_ENTRIES = 128


class Stage1Cache:
    """Memoised stage-1 runs keyed by (app, config, seed, budget).

    The memo is a bounded LRU: once ``max_entries`` distinct
    (app, configuration, seed, budget) runs are held, the least recently
    used one is evicted.  Size and eviction totals are observable as the
    ``jobs.stage1.entries`` / ``jobs.stage1.evictions`` telemetry gauges,
    lookup totals as the ``jobs.stage1.hits`` / ``jobs.stage1.misses``
    counters (bound by :func:`run_workload` whenever telemetry is
    attached).

    ``store`` layers a shared on-disk tier
    (:class:`~repro.sim.stage1_store.Stage1Store`, or a directory path)
    below the memo: LRU misses consult the store before simulating, and
    fresh simulations are persisted.  A store hit also skips the
    calibration probes — the stored result carries its ``base_cpi`` — so
    a fully warm store performs zero stage-1 simulations.
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_STAGE1_ENTRIES,
        *,
        store=None,
    ) -> None:
        from repro.sim.stage1_store import as_stage1_store

        if max_entries <= 0:
            raise ReproError("stage-1 cache needs at least one entry")
        self.max_entries = max_entries
        self.evictions = 0
        self.hits = 0
        self.misses = 0
        self.store = as_stage1_store(store)
        self._registry = None
        self._cache: OrderedDict[tuple, Stage1Result] = OrderedDict()

    def get(
        self,
        app: str,
        config: SystemConfig,
        *,
        seed: int | None = None,
        n_instructions: int = DEFAULT_INSTRUCTIONS,
    ) -> Stage1Result:
        """Fetch (or compute) the stage-1 result for one app."""
        key = (app, config_signature(config), seed, n_instructions)
        result = self._cache.get(key)
        if result is not None:
            self._cache.move_to_end(key)
            self.hits += 1
            self._count("hits")
            return result
        self.misses += 1
        self._count("misses")
        if self.store is not None:
            result = self.store.get(
                app, config, seed=seed, n_instructions=n_instructions
            )
            if result is not None:
                self._install(key, result)
                return result
        base_cpi = calibrated_base_cpi(app, config, seed=seed)
        sim = AppSimulator(app, config, seed=seed, base_cpi=base_cpi)
        result = sim.run(n_instructions)
        if self.store is not None:
            self.store.put(
                result, config, seed=seed, n_instructions=n_instructions
            )
        self._install(key, result)
        return result

    def _install(self, key: tuple, result: Stage1Result) -> None:
        self._cache[key] = result
        while len(self._cache) > self.max_entries:
            self._cache.popitem(last=False)
            self.evictions += 1

    def _count(self, name: str) -> None:
        if self._registry is not None:
            self._registry.counter(f"jobs.stage1.{name}").inc()

    def bind_telemetry(self, registry) -> None:
        """Expose the memo as ``jobs.stage1.*`` gauges and counters."""
        self._registry = registry
        registry.gauge("jobs.stage1.entries", fn=lambda: float(len(self._cache)))
        registry.gauge("jobs.stage1.evictions", fn=lambda: float(self.evictions))
        registry.counter("jobs.stage1.hits")
        registry.counter("jobs.stage1.misses")
        if self.store is not None:
            self.store.bind_telemetry(registry)

    def __len__(self) -> int:
        return len(self._cache)

    def clear(self) -> None:
        """Drop all memoised runs (eviction count persists)."""
        self._cache.clear()


@dataclass
class _MergedStream:
    """All cores' L3 references in global timestamp order."""

    ts: np.ndarray
    core: np.ndarray
    line: np.ndarray
    pc: np.ndarray
    is_wb: np.ndarray
    is_load: np.ndarray
    stall: np.ndarray
    slack: np.ndarray
    mlp: np.ndarray
    nominal: np.ndarray
    order: np.ndarray       # permutation applied (for un-sorting latencies)
    #: Per-core (lo, hi) slices in the *unsorted* concatenation covering
    #: the measured (first-copy) records, aligned with each core's
    #: original :class:`~repro.cpu.core.L3Stream` record order.
    measured_slices: tuple[tuple[int, int], ...] = ()
    total: int = field(init=False)

    def __post_init__(self) -> None:
        self.total = len(self.ts)


def _merge_streams(results: list[Stage1Result]) -> _MergedStream:
    """Merge per-core streams into one global-time reference sequence.

    Cores finish their instruction budgets at very different cycle
    counts (IPC spans 0.07..2.6), but in the machine every core runs
    continuously: a fast application keeps executing — and keeps
    generating LLC traffic — while a slow one is still working through
    its budget.  Each core's stream is therefore **replayed cyclically**
    (same working set, timestamps shifted by whole run lengths) until
    the slowest core's horizon.  Only the first copy carries exposure
    accounting (it is the measured instruction window); replays exist to
    produce realistic interference and wear rates.
    """
    horizon = max(float(r.cycles) for r in results)
    cols: dict[str, list[np.ndarray]] = {
        name: [] for name in
        ("ts", "line", "pc", "is_wb", "is_load", "stall", "slack", "mlp", "nominal")
    }
    core_parts = []
    measured_slices: list[tuple[int, int]] = []
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
            count = len(ts_rep)
            core_parts.append(np.full(count, core, dtype=np.int16))
            cursor += count
    ts = np.concatenate(cols["ts"])
    order = np.argsort(ts, kind="stable")
    merged = {name: np.concatenate(parts)[order] for name, parts in cols.items()}
    return _MergedStream(
        core=np.concatenate(core_parts)[order],
        order=order,
        measured_slices=tuple(measured_slices),
        **merged,
    )


def _warm_blocks(
    llc,
    workload: Workload,
    config: SystemConfig,
    results1: list[Stage1Result],
    *,
    seed: int | None,
):
    """Each core's warm-up install blocks: ``(core, lines, critical)``.

    ``lines`` is an int64 array of the block's line addresses, in install
    order; ``critical`` the block's per-line criticality draws (None for
    criticality-blind policies).

    For criticality-consuming policies (Re-NUCA), each resident line is
    installed with the criticality its last long-run fetch would have
    carried: in steady state a line's mapping reflects the predictor's
    verdict at its most recent refetch, so lines are prefilled critical
    with the app's measured predicted-critical fetch fraction.  (For the
    other policies placement ignores criticality, so no draws are made.)
    """
    from repro.common.rng import derive_rng
    from repro.trace.profiles import get_profile
    from repro.trace.synthetic import derive_params, warm_sets

    uses_criticality = getattr(llc.policy, "consumes_criticality", False)
    for core, app in enumerate(workload.apps):
        params = derive_params(get_profile(app), config)
        offset = _core_base(core)
        p_critical = 0.0
        if uses_criticality:
            s = results1[core].stream
            fetches = ~s.is_wb & s.is_load
            if fetches.any():
                p_critical = float(s.predicted[fetches].mean())
        rng = derive_rng(seed, "prefill", workload.name, core)
        for block in warm_sets(params, l2_lines=config.l2.num_lines)["l3"]:
            lines = np.arange(block.start, block.stop, block.step, dtype=np.int64)
            # One rng.random(len(block)) draw per block, exactly as the
            # historical per-line loop consumed it — warm-up criticality
            # stays deterministic per (seed, workload, core, block).
            critical = (
                rng.random(len(block)) < p_critical if p_critical > 0.0 else None
            )
            yield core, lines + offset, critical


def _warm_llc(
    llc,
    workload: Workload,
    config: SystemConfig,
    results1: list[Stage1Result],
    *,
    seed: int | None,
) -> None:
    """Install each core's L3-resident working set through the object graph.

    Mirrors the paper's warm-up phase: without it, short runs would count
    one compulsory miss per working-set line, drowning the steady-state
    hit rates of cache-friendly applications.  This is the reference
    warm-up (one policy/``Cache`` fill per line); the kernel path builds
    the same end state as arrays (:func:`_warm_arrays`).  The caller is
    responsible for :meth:`~repro.nuca.llc.NucaLLC.reset_measurement`
    afterwards (it may want to snapshot warm-up wear or apply faults
    first).
    """
    for core, lines, critical in _warm_blocks(
        llc, workload, config, results1, seed=seed
    ):
        llc.prefill_many(
            core, lines.tolist(),
            critical=None if critical is None else critical.tolist(),
        )


def _warm_arrays(
    llc,
    workload: Workload,
    config: SystemConfig,
    results1: list[Stage1Result],
    *,
    seed: int | None,
) -> ArrayBanks:
    """The kernel path's warm-up: the same stream, built as arrays.

    Concatenates :func:`_warm_blocks` and hands it to
    :func:`~repro.nuca.kernel.warm_state`, which leaves the per-bank
    ``Cache`` objects empty and returns the warm :class:`ArrayBanks`.
    """
    cores, lines, critical = [], [], []
    for core, block, draws in _warm_blocks(
        llc, workload, config, results1, seed=seed
    ):
        cores.append(np.full(len(block), core, dtype=np.int64))
        lines.append(block)
        critical.append(
            np.zeros(len(block), dtype=bool) if draws is None else draws
        )
    return warm_state(
        llc, np.concatenate(lines), np.concatenate(cores),
        np.concatenate(critical),
    )


@dataclass
class ReplayInputs:
    """Everything the measured stage-2 replay loop consumes.

    Produced by :func:`prepare_replay`: stage-1 results, the constructed
    and *warmed* LLC (measurement already reset), the merged reference
    stream, and the criticality-predictor state for schemes that consume
    it.  Benches and equivalence tests use this to time / drive the
    replay in isolation from stage 1 and warm-up.

    ``path`` is the replay the run takes: ``"kernel"`` or
    ``"reference.<reason>"`` (see :func:`_replay_path`).  On the kernel
    path the warm content lives in ``state`` only — the LLC's per-bank
    ``Cache`` objects stay empty — and on the reference path ``state``
    is None.
    """

    results1: list[Stage1Result]
    mesh: Mesh
    memory: MainMemory
    wear: WearTracker
    policy: object
    injector: FaultInjector | None
    llc: NucaLLC
    merged: _MergedStream
    cpts: list[CriticalityPredictor] | None
    threshold: float
    block_cycles: float
    path: str
    state: ArrayBanks | None


def prepare_replay(
    workload: Workload,
    scheme: str,
    config: SystemConfig | None = None,
    *,
    seed: int | None = None,
    n_instructions: int = DEFAULT_INSTRUCTIONS,
    stage1: Stage1Cache | None = None,
    fault_config: FaultConfig | None = None,
    telemetry: Telemetry | None = None,
    prof=DISABLED_PROFILER,
    spans=DISABLED_SPANS,
    use_kernel: bool | None = None,
) -> ReplayInputs:
    """Build the warmed stage-2 state without running the measured loop.

    Factored out of :func:`run_workload` so throughput benches can time
    the replay alone (stage 1 and warm-up excluded) and so equivalence
    tests can drive the kernel and reference paths from identical inputs.

    The replay path (``use_kernel``, see :func:`run_workload`) is decided
    on the empty LLC, before warm-up: the kernel path builds its warm
    state directly as arrays (:func:`~repro.nuca.kernel.warm_state`),
    the reference path fills the object graph line by line.
    """
    config = config or baseline_config()
    if workload.num_cores != config.num_cores:
        raise ReproError(
            f"workload {workload.name} has {workload.num_cores} apps but the "
            f"configuration has {config.num_cores} cores"
        )
    stage1 = Stage1Cache() if stage1 is None else stage1
    with prof.phase("stage1"), spans.span("stage1"):
        results1 = [
            stage1.get(app, config, seed=seed, n_instructions=n_instructions)
            for app in workload.apps
        ]

    mesh = Mesh(config.noc)
    memory = MainMemory(config.memory)
    inject = fault_config is not None and fault_config.active
    # Per-line tracking feeds the endurance fault model's set weighting.
    wear = WearTracker(
        config.num_banks,
        track_lines=inject and fault_config.age_fraction > 0,
    )
    policy = make_policy(scheme, config, mesh, wear)
    injector = (
        FaultInjector(config, fault_config, seed=seed) if inject else None
    )
    if telemetry is not None:
        wear.bind_telemetry(telemetry.registry)
        mesh.bind_telemetry(telemetry.registry)
        policy.attach_telemetry(telemetry)
        if injector is not None:
            injector.bind_telemetry(telemetry.registry, trace=telemetry.trace)
    llc = NucaLLC(
        config, policy, mesh, memory, wear, faults=injector, telemetry=telemetry
    )
    path = _replay_path(use_kernel, llc)
    state = None
    with prof.phase("warm-up"), spans.span("warm-up"):
        if path == "kernel":
            state = _warm_arrays(llc, workload, config, results1, seed=seed)
        else:
            _warm_llc(llc, workload, config, results1, seed=seed)
        if injector is not None:
            llc.apply_faults(wear.snapshot())
        llc.reset_measurement()

    merged = _merge_streams(results1)

    # For criticality-consuming policies (Re-NUCA) the Criticality
    # Predictor Table runs *online* in the measured loop, trained with
    # ground truth re-evaluated under this scheme's own latencies —
    # criticality is content-dependent (a load that hits never blocks;
    # the same load blocks once interference turns its hits into
    # misses), and the paper's predictor adapts to that feedback at run
    # time.
    uses_criticality = getattr(policy, "consumes_criticality", False)
    cpts = (
        [CriticalityPredictor(config.criticality) for _ in results1]
        if uses_criticality else None
    )
    return ReplayInputs(
        results1=results1,
        mesh=mesh,
        memory=memory,
        wear=wear,
        policy=policy,
        injector=injector,
        llc=llc,
        merged=merged,
        cpts=cpts,
        threshold=config.criticality.threshold_percent / 100.0,
        block_cycles=config.criticality.block_cycles,
        path=path,
        state=state,
    )


def _replay_path(use_kernel: bool | None, llc: NucaLLC) -> str:
    """Resolve the ``use_kernel`` tri-state against the (empty) LLC.

    Returns ``"kernel"`` or ``"reference.<reason>"``: a
    :func:`~repro.nuca.kernel.kernel_fallback_reason`, ``env``
    (``REPRO_KERNEL=0``) or ``pinned`` (``use_kernel=False``).
    """
    if use_kernel is False:
        return "reference.pinned"
    reason = kernel_fallback_reason(llc)
    if use_kernel:
        if reason is not None:
            raise ReproError(
                f"the replay kernel cannot drive this run (fallback "
                f"reason: {reason}); drop use_kernel=True to use the "
                "reference path"
            )
        return "kernel"
    if reason is None and os.environ.get("REPRO_KERNEL", "1") == "0":
        reason = "env"
    return "kernel" if reason is None else f"reference.{reason}"


def run_workload(
    workload: Workload,
    scheme: str,
    config: SystemConfig | None = None,
    *,
    seed: int | None = None,
    n_instructions: int = DEFAULT_INSTRUCTIONS,
    stage1: Stage1Cache | None = None,
    fault_config: FaultConfig | None = None,
    telemetry: Telemetry | None = None,
    ledger=None,
    use_kernel: bool | None = None,
    spans=None,
    accounting=None,
) -> WorkloadSchemeResult:
    """Stage-2 simulation of one workload under one NUCA scheme.

    ``fault_config`` injects end-of-life faults: after warm-up, the wear
    snapshot of the warmed LLC seeds the deterministic fault derivation
    (hot banks/sets have consumed more endurance), dead frames and banks
    are retired, and the measured phase runs on the degraded cache.  The
    run always completes; degradation shows up in the result's
    ``effective_capacity``/``remap_traffic``/IPC instead of exceptions.

    ``telemetry`` opts into observability (see ``docs/OBSERVABILITY.md``):
    the components register their instruments on its registry, structured
    events flow to its trace, the run is phase-timed by its profiler,
    and — when ``telemetry.interval_instructions`` is set — the measured
    phase periodically snapshots the registry into the result's
    ``intervals`` series.  Passing ``None`` (the default) leaves the
    simulation on its un-instrumented fast path.

    ``ledger`` — a :class:`~repro.obs.ledger.RunLedger` or its path —
    appends one provenance record for this run (identity, fingerprint,
    wall time, headline metrics, and — when the telemetry profiler is
    enabled — this run's phase totals).  Sweeps should pass the ledger
    to :func:`run_matrix`/``run_jobs`` instead, which also stamp how
    each cell was resolved.

    ``use_kernel`` selects the measured-loop implementation: ``None``
    (default) auto-engages the vectorized replay kernel
    (:mod:`repro.nuca.kernel`) whenever the run is un-instrumented —
    no telemetry, no fault injection — and the configuration is
    supported; ``True`` forces it (raising :class:`ReproError` when it
    cannot run); ``False`` pins the reference object-graph path.  Both
    paths produce field-for-field identical results (see
    ``docs/PERFORMANCE.md``); ``REPRO_KERNEL=0`` in the environment
    disables auto-engagement globally.  The path taken is the ``measure``
    span's ``path`` attribute.

    ``spans`` — a :class:`~repro.obs.spans.SpanRecorder` — brackets the
    run's phases (stage1 / warm-up / measure / reduce) as spans for the
    live-monitoring layer (see ``docs/OBSERVABILITY.md``).  It is
    deliberately separate from ``telemetry``: span brackets sit outside
    the measured loop, so a spans-only run keeps the vectorized kernel
    engaged.  Defaults to ``telemetry.spans`` when a handle carries
    one, else to the disabled recorder.

    ``accounting`` — a :class:`~repro.telemetry.StatsRegistry` — receives
    the engine counters of the run without instrumenting it: the stage-1
    memo's ``jobs.stage1.*`` and one ``jobs.replay.kernel`` or
    ``jobs.replay.reference.<reason>`` count.  The sweep engine passes
    its own registry here; defaults to ``telemetry.registry``.
    """
    stage1 = Stage1Cache() if stage1 is None else stage1
    if accounting is None and telemetry is not None:
        accounting = telemetry.registry
    if accounting is not None:
        stage1.bind_telemetry(accounting)
    if spans is None:
        spans = (
            telemetry.spans
            if telemetry is not None and telemetry.spans is not None
            else DISABLED_SPANS
        )
    prof = telemetry.profiler if telemetry is not None else DISABLED_PROFILER
    # Ledger provenance: wall time from here; profiler phase totals as a
    # delta, so a handle reused across runs records only this run's share.
    run_started = time.perf_counter()
    prof_before = prof.export_state() if prof.enabled else []
    config = config or baseline_config()
    prep = prepare_replay(
        workload, scheme, config,
        seed=seed, n_instructions=n_instructions, stage1=stage1,
        fault_config=fault_config, telemetry=telemetry, prof=prof,
        spans=spans, use_kernel=use_kernel,
    )
    results1 = prep.results1
    mesh = prep.mesh
    policy = prep.policy
    llc = prep.llc
    merged = prep.merged
    cpts = prep.cpts

    # Telemetry wiring for the measured phase.  Everything below stays
    # None/0 without a telemetry handle, so the reference loop's added
    # cost in the disabled case is a couple of short-circuited tests.
    cpt_predicted = cpt_mispredicts = None
    snapshot = None
    intervals: IntervalSeries | None = None
    interval_every = 0
    total_instr = int(sum(r.instructions for r in results1))
    if cpts is not None and telemetry is not None:
        bind_cpt_telemetry(telemetry.registry, cpts)
        cpt_predicted = telemetry.registry.counter("cpt.predictions")
        cpt_mispredicts = telemetry.registry.counter("cpt.mispredicts")
    if telemetry is not None and telemetry.interval_instructions > 0:
        # The interval unit is committed instructions (gem5-style); the
        # loop walks LLC accesses, so convert via the measured run's
        # instructions-per-access ratio.
        interval_every = max(
            1,
            round(
                merged.total * telemetry.interval_instructions
                / max(1, total_instr)
            ),
        )
        intervals = IntervalSeries(telemetry.interval_instructions)
        snapshot = telemetry.registry.snapshot

    with prof.phase("measure"), spans.span("measure", path=prep.path):
        if prep.state is not None:
            scheme_lat_sorted = kernel_replay(
                llc, merged, state=prep.state,
                cpts=cpts, threshold=prep.threshold,
                block_cycles=prep.block_cycles,
            )
        else:
            scheme_lat_sorted = _replay_reference(
                llc, merged,
                cpts=cpts, threshold=prep.threshold,
                block_cycles=prep.block_cycles,
                telemetry=telemetry, intervals=intervals,
                interval_every=interval_every, total_instr=total_instr,
                cpt_predicted=cpt_predicted, cpt_mispredicts=cpt_mispredicts,
            )
    if intervals is not None:
        # Close the series so delta sums always equal the run totals.
        intervals.record(
            accesses=merged.total,
            instructions=total_instr,
            cycles=float(merged.ts[-1]) if merged.total else 0.0,
            sample=snapshot(),
        )

    with prof.phase("reduce"), spans.span("reduce"):
        # Un-sort latencies back to per-core record order.
        scheme_lat = np.empty(merged.total, dtype=np.float32)
        scheme_lat[merged.order] = scheme_lat_sorted

        # Per-core IPC via the exposure model.
        n_cores = len(results1)
        ipc = np.zeros(n_cores)
        instructions = np.zeros(n_cores, dtype=np.int64)
        cycles = np.zeros(n_cores)
        for core, result in enumerate(results1):
            lo, hi = merged.measured_slices[core]
            delta = float(result.stream.exposure_delta(scheme_lat[lo:hi]).sum())
            core_cycles = max(1.0, result.cycles + delta)
            cycles[core] = core_cycles
            instructions[core] = result.instructions
            ipc[core] = result.instructions / core_cycles

        elapsed = float(cycles.max())
        lifetimes = lifetimes_for_banks(
            llc.wear.bank_writes,
            elapsed,
            config.core.clock_hz,
            lines_per_bank=config.l3_bank.num_lines,
            cell_endurance=config.reram.cell_endurance,
            wear_spread=config.reram.intra_bank_wear_spread,
        )

    critical_fraction = getattr(policy, "critical_fraction", 0.0)
    result = WorkloadSchemeResult(
        workload=workload.name,
        scheme=scheme,
        apps=workload.apps,
        per_core_ipc=ipc,
        per_core_instructions=instructions,
        per_core_cycles=cycles,
        bank_writes=llc.wear.bank_writes.copy(),
        bank_lifetimes=lifetimes,
        elapsed_cycles=elapsed,
        llc_fetch_hit_rate=llc.stats.fetch_hit_rate,
        llc_mean_fetch_latency=llc.stats.mean_fetch_latency,
        noc_mean_hops=mesh.stats.mean_hops,
        critical_fill_fraction=critical_fraction,
        llc_fetches=llc.stats.fetches,
        llc_writebacks=llc.stats.writebacks,
        noc_total_hops=mesh.stats.total_hops,
        age_fraction=fault_config.age_fraction if fault_config else 0.0,
        effective_capacity=llc.effective_capacity_fraction(),
        dead_banks=llc.dead_bank_count,
        remap_traffic=llc.stats.remap_traffic,
        fills_skipped=llc.stats.fills_skipped,
        transient_faults=llc.stats.transient_faults,
        intervals=intervals,
    )
    result.energy_mj = energy_of_result(result, config).total_mj
    if accounting is not None:
        accounting.counter(f"jobs.replay.{prep.path}").inc()

    if ledger is not None:
        from repro.jobs.spec import JobSpec
        from repro.obs.ledger import RunRecord, as_ledger

        profile: dict[str, float] = {}
        if prof.enabled:
            before = {tuple(p): s for p, _calls, s in prof_before}
            for path, _calls, seconds in prof.export_state():
                share = seconds - before.get(tuple(path), 0.0)
                if share > 0.0:
                    profile["/".join(path)] = share
        fingerprint = JobSpec.for_run(
            workload, scheme, config,
            seed=seed, n_instructions=n_instructions,
            fault_config=fault_config,
        ).fingerprint()
        with as_ledger(ledger) as run_ledger:
            run_ledger.append(RunRecord.for_result(
                result,
                seed=seed,
                n_instructions=n_instructions,
                wall_time_s=time.perf_counter() - run_started,
                fingerprint=fingerprint,
                profile=profile,
            ))

    return result


def _replay_reference(
    llc: NucaLLC,
    merged: _MergedStream,
    *,
    cpts,
    threshold: float,
    block_cycles: float,
    telemetry=None,
    intervals=None,
    interval_every: int = 0,
    total_instr: int = 0,
    cpt_predicted=None,
    cpt_mispredicts=None,
) -> np.ndarray:
    """The reference measured loop: one object-graph call per record.

    This is the semantic ground truth the kernel is verified against,
    and the only path able to carry telemetry/fault instrumentation.
    The numpy-to-list conversions live here so the kernel path never
    materializes the Python lists.
    """
    scheme_lat_sorted = np.zeros(merged.total, dtype=np.float32)
    fetch = llc.fetch
    writeback = llc.writeback
    trace = telemetry.trace if telemetry is not None else None
    snapshot = telemetry.registry.snapshot if telemetry is not None else None
    ts_l = merged.ts.tolist()
    core_l = merged.core.tolist()
    line_l = merged.line.tolist()
    wb_l = merged.is_wb.tolist()
    load_l = merged.is_load.tolist()
    pc_l = merged.pc.tolist()
    stall_l = merged.stall.tolist()
    slack_l = merged.slack.tolist()
    mlp_l = merged.mlp.tolist()
    nominal_l = merged.nominal.tolist()
    lat_out = scheme_lat_sorted  # direct ndarray indexing is fine for writes
    for i in range(merged.total):
        if interval_every and i and i % interval_every == 0:
            intervals.record(
                accesses=i,
                instructions=(i * total_instr) // merged.total,
                cycles=ts_l[i],
                sample=snapshot(),
            )
            if trace is not None:
                trace.emit(
                    "run.interval", ts=ts_l[i],
                    index=len(intervals) - 1, accesses=i,
                )
        core = core_l[i]
        if wb_l[i]:
            writeback(core, line_l[i], ts_l[i])
            continue
        if cpts is not None and load_l[i]:
            ratio = cpts[core].ratio(pc_l[i])
            predicted = ratio is not None and ratio >= threshold
        else:
            predicted = False
        lat, _hit = fetch(core, line_l[i], ts_l[i], predicted)
        lat_out[i] = lat
        if cpts is not None and load_l[i]:
            # Ground truth under this scheme's latency (exposure model).
            diff = lat - nominal_l[i]
            stall = stall_l[i]
            if stall > 0:
                stall2 = stall + diff / mlp_l[i]
            else:
                stall2 = (diff - slack_l[i]) / mlp_l[i]
            blocked = stall2 >= block_cycles
            cpts[core].observe_commit(pc_l[i], blocked)
            if cpt_mispredicts is not None:
                if predicted:
                    cpt_predicted.inc()
                if predicted != blocked:
                    cpt_mispredicts.inc()
                if trace is not None:
                    trace.emit(
                        "cpt.predict", ts=ts_l[i], core=core,
                        pc=pc_l[i], predicted=predicted, blocked=blocked,
                    )
    return scheme_lat_sorted


def run_matrix(
    workloads: list[Workload],
    schemes: tuple[str, ...],
    config: SystemConfig | None = None,
    *,
    label: str = "baseline",
    seed: int | None = None,
    n_instructions: int = DEFAULT_INSTRUCTIONS,
    stage1: Stage1Cache | None = None,
    stage1_store=None,
    fault_config: FaultConfig | None = None,
    telemetry: Telemetry | None = None,
    progress=None,
    parallel: int = 1,
    cache_dir=None,
    journal=None,
    resume: bool = False,
    retries: int = 1,
    observer=None,
    ledger=None,
    job_timeout_s: float | None = None,
    keep_going: bool = False,
    quarantine=None,
    chaos=None,
    spans=None,
) -> MatrixResult:
    """Run every workload under every scheme (the paper's result grid).

    ``progress`` is an optional callback ``(workload, scheme) -> None``
    invoked before each stage-2 run (the benches use it for narration).
    ``fault_config`` applies the same fault-injection point to every cell.
    ``telemetry`` is shared by every cell: counters accumulate across the
    grid while gauges always reflect the most recent run.  Only a handle
    that instruments cells (trace, intervals, profiler) reaches the
    simulations; a registry-only handle collects the engine accounting
    and leaves the cells on the replay kernel.

    The grid is resolved by the sweep engine (see ``docs/SWEEPS.md``):

    * ``parallel`` — worker processes; 1 (the default) runs in-process
      with ``stage1`` shared across cells, exactly the historical serial
      behaviour.  For the same seed a parallel run produces a matrix
      field-for-field equal to the serial one (per-job randomness
      derives from ``(seed, workload, scheme)``, never from scheduling).
      With ``parallel > 1`` the per-cell telemetry of each worker is
      merged back deterministically; a caller-supplied ``stage1`` is
      not consulted (workers keep their own).
    * ``cache_dir`` — content-addressed result cache directory; cells
      whose inputs are unchanged are served without simulating.
    * ``stage1_store`` — shared on-disk stage-1 store
      (:class:`~repro.sim.stage1_store.Stage1Store` or a directory
      path); workers and repeat runs reuse one characterisation per
      (app, config, seed, budget) instead of re-simulating it.
    * ``journal``/``resume`` — append-only completion journal enabling
      resumption of an interrupted sweep.
    * ``retries`` — per-cell retries on transient (non-``ReproError``)
      failures.
    * ``observer`` — live :class:`~repro.obs.progress.JobEvent` hook
      (what ``repro sweep --progress`` renders).
    * ``ledger`` — :class:`~repro.obs.ledger.RunLedger` (or path); one
      provenance record per cell, appended after the grid resolves.
    * ``job_timeout_s``/``keep_going``/``quarantine``/``chaos`` — the
      resilience knobs of :func:`repro.jobs.scheduler.run_jobs`:
      watchdog deadline, quarantine-and-continue for poison cells
      (FAILED placeholders land in the matrix), the quarantine journal
      path and the chaos-injection plan (tests/CI only).  See
      ``docs/RESILIENCE.md``.
    """
    from repro.jobs.scheduler import matrix_jobs, run_jobs

    config = config or baseline_config()
    matrix = MatrixResult(
        label=label,
        schemes=tuple(schemes),
        workloads=tuple(wl.name for wl in workloads),
    )
    jobs = matrix_jobs(
        workloads, tuple(schemes), config,
        seed=seed, n_instructions=n_instructions, fault_config=fault_config,
    )
    results, _report = run_jobs(
        jobs,
        max_workers=parallel,
        cache=cache_dir,
        journal=journal,
        resume=resume,
        retries=retries,
        stage1=stage1,
        stage1_store=stage1_store,
        telemetry=telemetry,
        progress=(
            None if progress is None
            else lambda job: progress(job.spec.workload, job.spec.scheme)
        ),
        observer=observer,
        ledger=ledger,
        job_timeout_s=job_timeout_s,
        keep_going=keep_going,
        quarantine=quarantine,
        chaos=chaos,
        spans=spans,
    )
    for result in results:
        matrix.add(result)
    return matrix
