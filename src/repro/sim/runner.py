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

import bisect
import math
import os
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.common.errors import ReproError, SimulationError
from repro.config import FaultConfig, SystemConfig, baseline_config
from repro.core.criticality import CriticalityPredictor, bind_cpt_telemetry
from repro.cpu.core import AppSimulator, Stage1Result
from repro.faults.injector import FaultInjector
from repro.mem.model import MainMemory
from repro.noc.mesh import Mesh
from repro.nuca import NucaLLC, make_policy
from repro.nuca import kernel as nuca_kernel
from repro.nuca.kernel import ArrayBanks, kernel_fallback_reason, warm_state
from repro.nuca.kernel import replay as kernel_replay
from repro.obs.spans import DISABLED_SPANS
from repro.reram.endurance import lifetimes_for_banks
from repro.reram.energy import energy_of_result
from repro.reram.wear import WearTracker
from repro.sim.calibrate import calibrated_base_cpi, config_signature
from repro.sim.metrics import MatrixResult, WorkloadSchemeResult
from repro.telemetry import Telemetry
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
        from repro.sim.stage1_store import Stage1Store

        if max_entries <= 0:
            raise ReproError("stage-1 cache needs at least one entry")
        self.max_entries = max_entries
        self.evictions = 0
        self.hits = 0
        self.misses = 0
        self.store = Stage1Store.coerce(store)
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


#: The columns a merged record can carry besides ``src``, ``rep`` and
#: ``ts``: its core, its line and the other
#: :class:`~repro.cpu.core.L3Stream` columns stage 2 reads (``nominal``
#: is ``nominal_lat``).
_COLUMNS = ("core", "line", "pc", "is_wb", "is_load", "stall", "slack", "mlp",
            "nominal")


@dataclass(slots=True)
class _Records:
    """Merged records ``lo`` to ``lo + len(src)``, column by column.

    ``src`` is each record's first-copy record (its position among the
    cores' first copies, concatenated core by core), ``rep`` its copy
    number (0: the measured copy).  ``line`` is in the core's address
    space (:func:`_core_base`) and ``ts`` is shifted by the copy's whole
    run lengths.  The columns a reader did not ask for are None.
    """

    lo: int
    src: np.ndarray
    rep: np.ndarray
    ts: np.ndarray
    core: np.ndarray | None = None
    line: np.ndarray | None = None
    pc: np.ndarray | None = None
    is_wb: np.ndarray | None = None
    is_load: np.ndarray | None = None
    stall: np.ndarray | None = None
    slack: np.ndarray | None = None
    mlp: np.ndarray | None = None
    nominal: np.ndarray | None = None

    def scatter_measured(self, out: np.ndarray, values) -> None:
        """Store the measured (first-copy) records' ``values`` at ``out[src]``."""
        first = self.rep == 0
        out[self.src[first]] = np.asarray(values, dtype=out.dtype)[first]

    def cut(self, lo: int, a: int, b: int) -> _Records:
        """Records ``a`` to ``b`` of these, as views, starting at ``lo``."""
        return _Records(lo, *(
            None if col is None else col[a:b] for col in self._arrays()
        ))

    def join(self, more: _Records) -> _Records:
        """These records followed by ``more``."""
        return _Records(self.lo, *(
            None if col is None else np.concatenate((col, tail))
            for col, tail in zip(self._arrays(), more._arrays())
        ))

    def _arrays(self) -> tuple:
        return tuple(getattr(self, name) for name in _ARRAYS)


#: The array fields of :class:`_Records`, in order.
_ARRAYS = ("src", "rep", "ts") + _COLUMNS


class _MergedStream:
    """All cores' L3 references in global timestamp order, streamed.

    Nothing is held per merged record.  Each core's copy ``rep`` is a
    *run*: a prefix of its stage-1 stream, whose ``ts`` (the dispatch
    clock) never decreases, shifted by ``rep`` run lengths.  ``runs``
    lists the non-empty runs as ``(core, rep, length)`` in run order
    (core, then copy), the order in which a stable argsort of every
    copy's timestamps would take them.

    :meth:`chunks` cuts merged time into windows of ``_CHUNK`` records
    on average and visits only the runs that overlap
    each window (one or two per core).  A window's records are the run
    slices below its edge, concatenated in run order; one stable
    argsort of their shifted timestamps orders them as the global
    stable argsort would, ties included, since equal timestamps never
    straddle an edge.  The columns are gathered from slices of the
    cores' :class:`~repro.cpu.core.L3Stream` columns.
    ``measured_slices`` holds each core's ``(lo, hi)`` slice of the
    first copies, concatenated core by core and aligned with its
    stream's records.
    """

    def __init__(self, streams, span: np.ndarray, runs) -> None:
        self.streams = streams
        self.span = span
        self.runs = runs
        starts = np.cumsum([0] + [len(s) for s in streams]).tolist()
        self._starts = starts
        self.measured_slices = tuple(zip(starts[:-1], starts[1:]))
        #: Number of measured (first-copy) records.
        self.measured = starts[-1]
        self.total = sum(length for _, _, length in runs)
        # Each run's first and last timestamp.
        self._begins = [float(self._shifted(run, 0, 1)[0]) for run in runs]
        self._ends = [float(self._shifted(run, run[2] - 1, run[2])[0]) for run in runs]
        self._rep_type = np.min_scalar_type(max((rep for _, rep, _ in runs), default=0))
        # Per column, each core's stream column.
        self._columns = {
            name: [getattr(s, "nominal_lat" if name == "nominal" else name)
                   for s in streams]
            for name in _COLUMNS if name != "core"
        }

    @property
    def last_ts(self) -> float:
        """Timestamp of the last record (0.0 for an empty stream)."""
        return max(self._ends, default=0.0)

    def _shifted(self, run, a: int, b: int) -> np.ndarray:
        """Timestamps of records ``a`` to ``b`` of ``run``.

        ``ts + rep * span``: the float64 operations of shifting the
        whole stream by ``rep`` run lengths, so the values are
        bit-identical.
        """
        core, rep, _ = run
        return self.streams[core].ts[a:b] + rep * self.span[core]

    def measured_column(self, name: str) -> np.ndarray:
        """Column ``name`` of the first copies, concatenated core by core.

        A new array per call, for callers that need it only briefly.
        """
        if name == "core":
            return np.repeat(np.arange(len(self.streams), dtype=np.int16),
                             np.diff(self._starts))
        if name == "line":
            return np.concatenate([
                line + _core_base(core)
                for core, line in enumerate(self._columns["line"])
            ])
        return np.concatenate(self._columns[name])

    def chunks(self, names=_COLUMNS):
        """Every record in merged order, in chunks of exactly ``_CHUNK``.

        Each chunk carries ``src``, ``rep``, ``ts`` and the columns in
        ``names``.  The last chunk holds the rest; ``lo`` is a chunk's
        position in the merged order.  Each call streams the windows
        afresh.
        """
        step = nuca_kernel._CHUNK
        lo = 0
        # The records of earlier windows not yielded yet (fewer than a chunk).
        held = None
        for window in self._windows(names):
            n = len(window.src)
            a = 0
            if held is not None:
                a = min(step - len(held.src), n)
                held = held.join(window.cut(lo, 0, a))
                if len(held.src) < step:
                    continue
                yield held
                lo += step
            while a + step <= n:
                yield window.cut(lo, a, a + step)
                lo += step
                a += step
            held = window.cut(lo, a, n) if a < n else None
        if held is not None:
            yield held

    def _edges(self):
        """The windows' upper edges (exclusive), ending with infinity.

        Evenly spaced in time, ``_CHUNK`` records apart on average.
        """
        begin, end = min(self._begins), max(self._ends)
        width = (end - begin) * nuca_kernel._CHUNK / self.total
        k = 1
        while width > 0 and begin + k * width < end:
            yield begin + k * width
            k += 1
        yield math.inf

    def _windows(self, names):
        """Each window's records in merged order."""
        if not self.total:
            return
        runs = self.runs
        begins = self._begins
        # Runs not started yet, the earliest last; the active runs in run
        # order, with the number of records taken from each.
        waiting = sorted(range(len(runs)), key=begins.__getitem__, reverse=True)
        active: list[int] = []
        taken: dict[int, int] = {}
        for edge in self._edges():
            while waiting and begins[waiting[-1]] < edge:
                r = waiting.pop()
                bisect.insort(active, r)
                taken[r] = 0
            parts = []
            for r in active:
                stop = self._below(runs[r], edge)
                if stop > taken[r]:
                    parts.append((r, taken[r], stop))
                    taken[r] = stop
            if parts:
                yield self._gather(parts, names)
            for r, _, stop in parts:
                if stop == runs[r][2]:
                    active.remove(r)
                    del taken[r]

    def _below(self, run, edge: float) -> int:
        """How many records of ``run`` have timestamps below ``edge``."""
        core, rep, length = run
        if edge == math.inf:
            return length
        ts = self.streams[core].ts
        shift = rep * self.span[core]
        # A guess from the unshifted timestamps, then exact: the shifted
        # timestamps never decrease, so a group of equal timestamps
        # crosses the edge together.
        k = min(int(ts.searchsorted(edge - shift)), length)
        while k and ts[k - 1] + shift >= edge:
            k = int(ts.searchsorted(ts[k - 1]))
        while k < length and ts[k] + shift < edge:
            k = min(int(ts.searchsorted(ts[k], "right")), length)
        return k

    def _gather(self, parts, names) -> _Records:
        """The records of run slices ``parts`` ``(run, a, b)``, merged."""
        runs = self.runs
        slices = [(runs[r][0], a, b) for r, a, b in parts]
        sizes = [b - a for _, a, b in parts]
        stamps = np.concatenate([self._shifted(runs[r], a, b) for r, a, b in parts])
        order = np.argsort(stamps, kind="stable")
        # Per merged record, the slice it comes from.
        part = np.repeat(np.arange(len(parts)), sizes)[order]
        core = np.array([core for core, _, _ in slices], dtype=np.int16)
        cols = {}
        for name in names:
            if name == "core":
                cols[name] = core[part]
                continue
            column = self._columns[name]
            cols[name] = np.concatenate([
                column[c][a:b] for c, a, b in slices
            ])[order]
            if name == "line":
                cols[name] += np.array([_core_base(c) for c, _, _ in slices])[part]
        # A record's first-copy position, from its position in the window.
        shift = np.array([self._starts[c] + a for c, a, _ in slices]) - np.cumsum(
            [0] + sizes[:-1]
        )
        return _Records(
            0,
            src=order + shift[part],
            rep=np.array([runs[r][1] for r, _, _ in parts],
                         dtype=self._rep_type)[part],
            ts=stamps[order],
            **cols,
        )


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

    The copies are never built: a copy's records at or before the
    horizon are a prefix of its core's stream, as a stream's timestamps
    never decrease (checked here; :class:`SimulationError` otherwise),
    so each copy is a run of known length and :class:`_MergedStream`
    merges the runs window by window.
    """
    horizon = max(float(r.cycles) for r in results)
    span = np.array([max(float(r.cycles), 1.0) for r in results])
    runs = []
    for core, result in enumerate(results):
        ts = result.stream.ts
        if (ts[1:] < ts[:-1]).any():
            raise SimulationError(
                f"core {core}'s L3 stream goes back in time; stage 2 needs "
                "non-decreasing timestamps"
            )
        if len(ts):
            runs.append((core, 0, len(ts)))
        for rep in range(1, max(1, int(np.ceil(horizon / span[core])))):
            shift = rep * span[core]
            length = bisect.bisect_right(ts, horizon, key=lambda t: t + shift)
            if not length:
                break
            runs.append((core, rep, length))
    return _MergedStream([r.stream for r in results], span, runs)


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
        blocks = warm_sets(derive_params(get_profile(app), config),
                           l2_lines=config.l2.num_lines)["l3"]
        offset = _core_base(core)
        p_critical = 0.0
        if uses_criticality:
            s = results1[core].stream
            fetches = ~s.is_wb & s.is_load
            if fetches.any():
                p_critical = float(s.predicted[fetches].mean())
        rng = derive_rng(seed, "prefill", workload.name, core)
        for block in blocks:
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

    Hands :func:`~repro.nuca.kernel.warm_state` the blocks of
    :func:`_warm_blocks` as its runs, generated afresh for each of its
    passes (the per-core criticality draws are seeded, so every pass
    sees the same stream), and returns the warm :class:`ArrayBanks`; the
    per-bank ``Cache`` objects stay empty.
    """
    return warm_state(
        llc, lambda: _warm_blocks(llc, workload, config, results1, seed=seed)
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
    with spans.span("stage1"):
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
    with spans.span("warm-up"):
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
    use_kernel: bool | None = None,
    spans=None,
    accounting=None,
    run_info: dict | None = None,
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
    events flow to its trace, and — when
    ``telemetry.interval_instructions`` is set — the measured phase
    periodically snapshots the registry into the result's ``intervals``
    series.  Passing ``None`` (the default) leaves the
    simulation on its un-instrumented fast path.

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
    engaged.  Defaults to the disabled recorder.

    ``accounting`` — a :class:`~repro.telemetry.StatsRegistry` — receives
    the engine counters of the run without instrumenting it: the stage-1
    memo's ``jobs.stage1.*`` and one ``jobs.replay.kernel`` or
    ``jobs.replay.reference.<reason>`` count.  The sweep engine passes
    its own registry here; defaults to ``telemetry.registry``.

    ``run_info`` — a dict — receives how the run was simulated:
    ``replay_path``, the replay taken (``kernel`` or
    ``reference.<reason>``).  The sweep engine stamps it on the cell's
    ledger record; :func:`~repro.jobs.scheduler.run_jobs` writes the
    ledger, so a run that needs provenance goes through it.
    """
    stage1 = Stage1Cache() if stage1 is None else stage1
    if accounting is None and telemetry is not None:
        accounting = telemetry.registry
    if accounting is not None:
        stage1.bind_telemetry(accounting)
    if spans is None:
        spans = DISABLED_SPANS
    config = config or baseline_config()
    prep = prepare_replay(
        workload, scheme, config,
        seed=seed, n_instructions=n_instructions, stage1=stage1,
        fault_config=fault_config, telemetry=telemetry,
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

    with spans.span("measure", path=prep.path):
        if prep.state is not None:
            scheme_lat = kernel_replay(
                llc, merged, state=prep.state,
                cpts=cpts, threshold=prep.threshold,
                block_cycles=prep.block_cycles,
            )
        else:
            scheme_lat = _replay_reference(
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
            cycles=merged.last_ts,
            sample=snapshot(),
        )

    with spans.span("reduce"):
        # Per-core IPC via the exposure model, over the measured copies.
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
    if run_info is not None:
        run_info["replay_path"] = prep.path
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
    Records stream through in the kernel's chunks; only the chunk at
    hand becomes Python lists.  Returns the measured (first-copy)
    records' latencies, first copies concatenated core by core
    (``merged.measured_slices``).
    """
    scheme_lat = np.zeros(merged.measured, dtype=np.float32)
    fetch = llc.fetch
    writeback = llc.writeback
    trace = telemetry.trace if telemetry is not None else None
    snapshot = telemetry.registry.snapshot if telemetry is not None else None
    for rec in merged.chunks():
        ts_l = rec.ts.tolist()
        core_l = rec.core.tolist()
        line_l = rec.line.tolist()
        wb_l = rec.is_wb.tolist()
        load_l = rec.is_load.tolist()
        pc_l = rec.pc.tolist()
        stall_l = rec.stall.tolist()
        slack_l = rec.slack.tolist()
        mlp_l = rec.mlp.tolist()
        nominal_l = rec.nominal.tolist()
        lat_out = np.zeros(len(ts_l), dtype=np.float32)
        for j, i in enumerate(range(rec.lo, rec.lo + len(ts_l))):
            if interval_every and i and i % interval_every == 0:
                intervals.record(
                    accesses=i,
                    instructions=(i * total_instr) // merged.total,
                    cycles=ts_l[j],
                    sample=snapshot(),
                )
                if trace is not None:
                    trace.emit(
                        "run.interval", ts=ts_l[j],
                        index=len(intervals) - 1, accesses=i,
                    )
            core = core_l[j]
            if wb_l[j]:
                writeback(core, line_l[j], ts_l[j])
                continue
            if cpts is not None and load_l[j]:
                ratio = cpts[core].ratio(pc_l[j])
                predicted = ratio is not None and ratio >= threshold
            else:
                predicted = False
            lat, _hit = fetch(core, line_l[j], ts_l[j], predicted)
            lat_out[j] = lat
            if cpts is not None and load_l[j]:
                # Ground truth under this scheme's latency (exposure model).
                diff = lat - nominal_l[j]
                stall = stall_l[j]
                if stall > 0:
                    stall2 = stall + diff / mlp_l[j]
                else:
                    stall2 = (diff - slack_l[j]) / mlp_l[j]
                blocked = stall2 >= block_cycles
                cpts[core].observe_commit(pc_l[j], blocked)
                if cpt_mispredicts is not None:
                    if predicted:
                        cpt_predicted.inc()
                    if predicted != blocked:
                        cpt_mispredicts.inc()
                    if trace is not None:
                        trace.emit(
                            "cpt.predict", ts=ts_l[j], core=core,
                            pc=pc_l[j], predicted=predicted, blocked=blocked,
                        )
        rec.scatter_measured(scheme_lat, lat_out)
    return scheme_lat


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
    ``telemetry`` collects every cell: each cell runs with telemetry of
    its own, merged back in job order, so counters accumulate across the
    grid while gauges reflect the most recent run.  Only a handle that
    traces events or dumps intervals instruments the cells; a
    registry-only handle collects the engine accounting and leaves the
    cells on the replay kernel.

    The grid is resolved by the sweep engine (see ``docs/SWEEPS.md``):

    * ``parallel`` — worker processes; 1 (the default) runs in-process
      with ``stage1`` shared across cells.  For the same seed a parallel
      run produces a matrix field-for-field equal to the serial one
      (per-job randomness derives from ``(seed, workload, scheme)``,
      never from scheduling).  With ``parallel > 1`` a caller-supplied
      ``stage1`` is not consulted (workers keep their own).
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
