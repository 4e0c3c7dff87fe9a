"""Vectorized stage-1 characterisation kernel (the un-instrumented fast path).

The stage-1 hot loop replays hundreds of thousands of trace bundles; the
reference implementation (:meth:`~repro.cpu.core.AppSimulator.run`) walks
the full object graph per record — :meth:`~repro.cache.cache.Cache.access`
(one frozen ``AccessResult`` per level), :meth:`~repro.cpu.rob.
ReorderBuffer.dispatch` (one ``CommittedLoad`` per retired load),
:meth:`~repro.core.criticality.CriticalityMeters.load_committed` (three
numpy element-wise ops per commit) and method dispatch for the CPT, MSHR
file, stream prefetcher and memory pipe.  This module splits the run in
two passes.

The **cache walk** (:func:`walk`) depends only on line order, never on
``base_cpi``:

* the live per-set tag dicts (:meth:`~repro.cache.lru.SetAssocArray.set_views`)
  are mutated in place — a hit is one C-level ``pop`` + re-insert, a fill
  evicts ``next(iter(ways))``; the ``Cache`` objects' arrays *are* the
  kernel's L1/L2/L3 state, so the final content needs no translation;
* the warm-up is installed in closed form (:func:`warm_caches`): each
  set's steady-state survivors are computed with numpy instead of one
  ``Cache.allocate`` per line.  The L1 and L2, which every bundle reads,
  get them at once, one ``dict.update`` per set; the nominal L3 holds
  them as pending content and builds a set's dict the first time the
  walk reaches that set (a 10k-instruction walk reaches at most a few
  hundred of the baseline's 2 048), while every other reader of the array sees the
  whole content (:meth:`~repro.cache.lru.SetAssocArray.defer_fill`);
* the stream-prefetch detector and the DRAM open-row state are inlined;
* each bundle leaves one outcome code (L1 hit ... L3 miss on a closed
  row, prefetch-covered or not) plus the lines of its L2 write-backs, and
  the hit/miss statistics are counted from the codes with numpy.

The **timing pass** replays the codes through the ROB interval
arithmetic, MSHR occupancy and open-row memory pipe, inlined as local
scalars and plain dicts (zero per-record allocations) in the reference's
exact floating-point operation order.  It comes in two forms:

* :func:`characterize` adds the CPT issue-query/commit-update, the L3
  stream records and the criticality meters, **deferred**: per-event
  ``(ratio, blocked)`` tuples are collected and reduced with batched
  numpy sums at the end (the meter updates are commutative integer adds,
  unlike the CPT's order-sensitive issue/commit interleaving, which stays
  inline);
* :func:`retime` computes only ``(cycles, instructions)``, which is all
  base-CPI calibration reads, so one walk serves every calibration probe
  (:mod:`repro.sim.calibrate`).  It reads per-bundle columns the walk
  prepares with numpy (dispatch count, ROB index, a timing kind), keeps
  the in-flight loads on a flat queue with a head index, and takes a
  short path for the L1/L2 hits that make up about 98 % of bundles.

The cyclic garbage collector is paused across :func:`characterize` and
a calibration's walk and re-timings (:func:`gc_paused`): they build
tens of thousands of small acyclic containers, which a collection
would only walk.

Equivalence contract: the closed-form warm-up leaves the same per-set
content as the reference ``AppSimulator._warm_caches`` (its oracle),
and for every supported configuration :func:`characterize` produces a
**field-for-field identical**
:class:`~repro.cpu.core.Stage1Result` to the reference path — Table II
statistics, criticality meters and the full L3 reference stream
including ``stall``/``slack``/``mlp`` — and :func:`retime` the reference
run's ``(cycles, instructions)`` at any ``base_cpi``.  Statistics are
transferred back into the live objects (cache/MSHR/CPT/prefetch/memory
stats, ROB clocks, CPT table) so the simulator reads identically
afterwards.

The kernel only drives caches in their native-LRU, un-degraded mode;
:func:`kernel_supported` is the single gate (see
:meth:`~repro.cpu.core.AppSimulator.run`'s ``use_kernel`` tri-state).
"""

from __future__ import annotations

import gc
import sys
from array import array
from collections import OrderedDict, deque
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from repro.cache.lru import lru_survivors
from repro.common.errors import SimulationError
from repro.common.rng import derive_rng
from repro.trace.generator import bundles_for_instructions, generate_trace


def kernel_supported(sim) -> bool:
    """True when the kernel can reproduce ``sim`` bit-for-bit.

    The kernel drives the set dicts directly under the native-LRU
    invariants: insertion order is recency order, the set index is
    ``line & (num_sets - 1)``, and every set has its full associativity.
    Pluggable replacement policies, retired ways (fault degradation),
    index shifts and wear rotations all break those invariants.
    """
    for cache in (sim.l1d, sim.l2, sim.l3):
        if (
            cache._policy is not None
            or cache._way_limits is not None
            or cache.index_shift != 0
            or cache._rotation != 0
        ):
            return False
    return True


def warm_caches(sim, base_line: int) -> None:
    """Closed-form counterpart of ``AppSimulator._warm_caches``.

    Each cache's warm stream (:func:`~repro.trace.synthetic.warm_sets`)
    is a duplicate-free concatenation of ranges, so under native LRU
    every install misses and each set ends holding its last ``assoc``
    inserts, in insertion order.  Those survivors are computed with numpy
    and written into the live per-set dicts, each with a fresh
    ``[dirty, None]`` payload (the kernel mutates payloads in place).
    Dirty flags follow ``l2_dirty_stride``; statistics are reset, as the
    reference warm-up leaves them.  The caller guarantees
    :func:`kernel_supported` (the set index is ``line & (num_sets - 1)``).
    """
    from repro.trace.synthetic import warm_sets

    sets = warm_sets(sim.params, l2_lines=sim.config.l2.num_lines)
    window = _range_lines(sets["l2_dirty_window"])
    stride = sets["l2_dirty_stride"]
    l2_clean = _range_lines(*sets["l2_clean"])
    l2_dirty = np.zeros(len(l2_clean) + len(window), dtype=bool)
    if stride:
        l2_dirty[len(l2_clean)::stride] = True
    _install_lru(sim.l1d, _range_lines(sets["l1"]) + base_line)
    _install_lru(sim.l2, np.concatenate((l2_clean, window)) + base_line, l2_dirty)
    l3_lines = _range_lines(*sets["l3"]) + base_line
    keep, kept_sets = _lru_keep(sim.l3, l3_lines)
    sim.l3._array.defer_fill(kept_sets, l3_lines[keep], (False, None))


def _range_lines(*blocks: range) -> np.ndarray:
    """Concatenate ``range`` blocks into one int64 line array."""
    return np.concatenate(
        [np.arange(b.start, b.stop, b.step, dtype=np.int64) for b in blocks]
    )


@contextmanager
def gc_paused():
    """Pause the cyclic garbage collector; restore the caller's state after.

    Also a decorator.  The stage-1 kernel builds tens of thousands of small
    containers (payload lists, per-bundle columns) that cannot form
    cycles, and each collection would only walk them.  A caller that had
    the collector disabled finds it disabled, also when the body raises.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _lru_keep(cache, lines: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the lines LRU-filling empty ``cache`` with ``lines`` keeps.

    Grouped by ascending set, LRU -> MRU within a set
    (:func:`~repro.cache.lru.lru_survivors`), with their sets.  Checks that
    the cache is empty and the stream miss-only, and resets the
    statistics, as the reference warm-up leaves them.
    """
    from repro.cache.cache import CacheStats

    if not cache._array.is_empty():
        raise SimulationError(f"{cache.name}: closed-form warm-up needs an empty cache")
    ordered = np.sort(lines)
    if (ordered[1:] == ordered[:-1]).any():
        raise SimulationError(
            f"{cache.name}: warm stream repeats a line; the closed-form "
            "warm-up needs a miss-only stream"
        )
    cache.stats = CacheStats()
    set_idx = lines & (cache.num_sets - 1)
    keep = lru_survivors(set_idx, cache.config.assoc)
    return keep, set_idx[keep]


def _install_lru(cache, lines: np.ndarray, dirty: np.ndarray | None = None) -> None:
    """Leave ``cache`` as LRU-filling an empty cache with ``lines`` would.

    Every set's dict is filled now (the L1 and L2, which the walk reads on
    every bundle); the nominal L3 instead holds its survivors as pending
    content and builds a set on first touch
    (:meth:`~repro.cache.lru.SetAssocArray.defer_fill`).
    """
    keep, kept_sets = _lru_keep(cache, lines)
    views = cache._array.set_views()
    sets_l, firsts = np.unique(kept_sets, return_index=True)
    bounds = np.r_[firsts, len(keep)].tolist()
    line_l = lines[keep].tolist()
    with gc_paused():
        if dirty is None:
            payloads = [[False, None] for _ in line_l]
        else:
            payloads = [[d, None] for d in dirty[keep].tolist()]
        for s, lo, hi in zip(sets_l.tolist(), bounds, bounds[1:]):
            views[s].update(zip(line_l[lo:hi], payloads[lo:hi]))


#: Outcome of one bundle's cache walk (:class:`CacheWalk` ``code``).  An
#: L2 miss is an L3 fetch: an L3 hit, or a miss whose DRAM access hit or
#: missed the open row.  ``COVERED`` is added when the stream prefetcher
#: had already issued the fetch, and ``WB`` once per L2 write-back the
#: bundle sent to the L3 (at most two: the dirty L1 victim's cascade and
#: the L2 victim).
L1_HIT, L2_HIT, L3_HIT, L3_ROW_HIT, L3_ROW_MISS = range(5)
COVERED = 3
WB = 8

#: What :func:`retime` does with a bundle (:class:`CacheWalk` ``kind``): a
#: read that hit the L1 or the L2 and waits on no earlier load (queued at
#: a fixed latency), a write that hit either (it only dispatches), or
#: anything else: an L3 reference or a dependent read.
L1_READ, L2_READ, HIT_WRITE, OTHER = range(4)


@dataclass
class CacheWalk:
    """The ``base_cpi``-independent half of one stage-1 run (:func:`walk`).

    ``trace`` is the walked trace (one :data:`~repro.trace.generator.
    TRACE_DTYPE` array); per bundle, ``code`` is its outcome; in walk
    order, ``wb_line`` holds the lines of the L2 write-backs.  ``sim`` is
    the walked simulator: its caches, prefetcher and DRAM open rows hold
    their final state and its cache/prefetch statistics are set;
    ``mem_row_hits`` awaits the timing pass.  Line order alone decides all
    of it, so one walk serves every ``base_cpi`` (:func:`retime`).

    The rest are :func:`retime`'s columns, computed with numpy: per
    bundle, the dispatch ``count`` (``gap + 1`` as a float, one shared
    object per value), the ROB index ``end`` past its last instruction and
    the timing ``kind``; per load, its ROB index (``load_idx``, then
    ``sys.maxsize``); per :data:`OTHER` bundle, ``(line, code & (WB - 1),
    is_write, dep)``.
    """

    sim: object
    trace: np.ndarray
    code: list[int]
    wb_line: list[int]
    mem_row_hits: int
    count: list[float]
    end: list[int]
    kind: list[int]
    load_idx: list[int]
    other: list[tuple[int, int, bool, bool]]


def walk(sim, n_instructions: int, *, base_line: int = 0) -> CacheWalk:
    """Synthesise the trace and walk it through L1/L2/nominal L3.

    Warms ``sim``'s caches in closed form (:func:`warm_caches`), then
    drives every bundle through the live per-set dicts, the stream
    prefetcher's region table and the DRAM open-row state, recording
    each bundle's outcome.  An L3 set's dict is built the first time the
    walk reaches it (:meth:`~repro.cache.lru.SetAssocArray.lazy_views`).
    No timing is involved: the ROB, MSHR file and memory pipe are left to
    :func:`retime` or :func:`characterize`.
    """
    from repro.cache.cache import CacheStats
    from repro.cpu.core import _CHUNK_BUNDLES
    from repro.cpu.prefetch import PrefetchStats

    if n_instructions <= 0:
        raise SimulationError("instruction budget must be positive")
    warm_caches(sim, base_line)
    params = sim.params
    profile = sim.profile
    rng = derive_rng(sim.seed, "trace", profile.name)
    cursor_rng = derive_rng(sim.seed, "cursors", profile.name)
    stream_cursor = int(cursor_rng.integers(0, params.stream_lines))
    mid_cursor = int(cursor_rng.integers(0, params.mid_lines))
    total_bundles = bundles_for_instructions(params, n_instructions)
    done_bundles = 0

    # --- cache state: the warmed Cache objects' live per-set dicts --------
    l1, l2, l3 = sim.l1d, sim.l2, sim.l3
    l1_sets = l1._array.set_views()
    l2_sets = l2._array.set_views()
    l3_sets, l3_build = l3._array.lazy_views()
    l1_mask = l1.num_sets - 1
    l2_mask = l2.num_sets - 1
    l3_mask = l3.num_sets - 1
    l1_assoc = l1.config.assoc
    l2_assoc = l2.config.assoc
    l3_assoc = l3.config.assoc
    # Hits, misses and demand accesses follow from the codes; only the
    # victim bookkeeping and the write-back fills are counted inline.
    l1_wb = l1_clean = 0
    l2_fills = l2_wb = l2_clean = 0
    l3_fills = l3_wb = l3_clean = 0

    pf = sim.prefetcher
    pf_d = pf._last
    pf_get = pf_d.get
    pf_move = pf_d.move_to_end
    pf_pop = pf_d.popitem
    pf_shift = pf.region_shift
    pf_stride = pf.max_stride
    pf_max = pf.max_regions

    mem = sim.memory
    row_shift = mem._row_shift
    bank_mask = mem._bank_mask
    open_rows = mem._open_rows
    open_get = open_rows.get

    chunks: list[np.ndarray] = []
    code_col: list[int] = []
    wb_col: list[int] = []
    code_append = code_col.append
    wb_append = wb_col.append

    def absorb_writeback(wline: int) -> None:
        # AppSimulator._emit_writeback's nominal-L3 absorb.
        nonlocal l3_fills, l3_wb, l3_clean
        wb_append(wline)
        ways3 = l3_sets[wline & l3_mask]
        if ways3 is None:
            ways3 = l3_build(wline & l3_mask)
        entry3 = ways3.get(wline)
        if entry3 is not None:
            entry3[0] = True
        else:
            l3_fills += 1
            if len(ways3) >= l3_assoc:
                victim3 = ways3.pop(next(iter(ways3)))
                if victim3[0]:
                    l3_wb += 1
                else:
                    l3_clean += 1
            ways3[wline] = [True, None]

    while done_bundles < total_bundles:
        chunk = min(_CHUNK_BUNDLES, total_bundles - done_bundles)
        trace = generate_trace(
            params,
            chunk,
            rng,
            base_line=base_line,
            stream_cursor=stream_cursor,
            mid_cursor=mid_cursor,
        )
        primary = ~trace["is_write"]
        stream_cursor += int(np.count_nonzero((trace["kind"] == 2) & primary))
        mid_cursor += int(np.count_nonzero((trace["kind"] == 1) & primary))
        done_bundles += chunk

        chunks.append(trace)

        for line, is_write in zip(trace["line"].tolist(), trace["is_write"].tolist()):
            ways1 = l1_sets[line & l1_mask]
            entry1 = ways1.pop(line, None)
            if entry1 is not None:
                ways1[line] = entry1
                if is_write:
                    entry1[0] = True
                code_append(L1_HIT)
                continue
            code = 0
            victim1 = None
            if len(ways1) >= l1_assoc:
                vline1 = next(iter(ways1))
                victim1 = ways1.pop(vline1)
                if victim1[0]:
                    l1_wb += 1
                else:
                    l1_clean += 1
            ways1[line] = [is_write, None]
            if victim1 is not None and victim1[0]:
                # _l2_absorb: the L2 soaks up the dirty L1 victim.
                ways2v = l2_sets[vline1 & l2_mask]
                entry2v = ways2v.get(vline1)
                if entry2v is not None:
                    entry2v[0] = True
                else:
                    l2_fills += 1
                    if len(ways2v) >= l2_assoc:
                        wline = next(iter(ways2v))
                        if ways2v.pop(wline)[0]:
                            l2_wb += 1
                            absorb_writeback(wline)
                            code = WB
                        else:
                            l2_clean += 1
                    ways2v[vline1] = [True, None]
            ways2 = l2_sets[line & l2_mask]
            entry2 = ways2.pop(line, None)
            if entry2 is not None:
                ways2[line] = entry2
                if is_write:
                    entry2[0] = True
                code_append(code + L2_HIT)
                continue
            dirty_victim = -1
            if len(ways2) >= l2_assoc:
                wline = next(iter(ways2))
                if ways2.pop(wline)[0]:
                    l2_wb += 1
                    dirty_victim = wline
                else:
                    l2_clean += 1
            ways2[line] = [is_write, None]
            if dirty_victim >= 0:
                absorb_writeback(dirty_victim)
                code += WB

            # --- L3 reference (fetch) ---------------------------------
            region = line >> pf_shift
            last = pf_get(region)
            if last is None:
                if len(pf_d) >= pf_max:
                    pf_pop(last=False)
            else:
                pf_move(region)
            pf_d[region] = line
            if last is not None and 0 < line - last <= pf_stride:
                code += COVERED

            ways3 = l3_sets[line & l3_mask]
            if ways3 is None:
                ways3 = l3_build(line & l3_mask)
            entry3 = ways3.pop(line, None)
            if entry3 is not None:
                ways3[line] = entry3
                code_append(code + L3_HIT)
                continue
            l3_fills += 1
            if len(ways3) >= l3_assoc:
                victim3 = ways3.pop(next(iter(ways3)))
                if victim3[0]:
                    l3_wb += 1
                else:
                    l3_clean += 1
            ways3[line] = [False, None]
            row = line >> row_shift
            bank = row & bank_mask
            if open_get(bank) == row:
                code_append(code + L3_ROW_HIT)
            else:
                open_rows[bank] = row
                code_append(code + L3_ROW_MISS)

    # --- statistics from the outcome codes --------------------------------
    codes = np.asarray(code_col, dtype=np.int64) & (WB - 1)
    fetch = codes >= L3_HIT
    # A one-chunk walk (every calibration probe) keeps its chunk: no copy.
    trace = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
    written = trace["is_write"]
    l1_writes = int(np.count_nonzero(written))
    l1_misses = int(np.count_nonzero(codes))
    l2_writes = int(np.count_nonzero(written[codes != L1_HIT]))
    l2_misses = int(np.count_nonzero(fetch))
    l3_misses = int(np.count_nonzero(fetch & (codes != L3_HIT) & (codes != L3_HIT + COVERED)))
    l1.stats = CacheStats(
        demand_reads=len(codes) - l1_writes, demand_writes=l1_writes,
        hits=len(codes) - l1_misses, misses=l1_misses, fills=l1_misses,
        writebacks=l1_wb, clean_evictions=l1_clean,
    )
    l2.stats = CacheStats(
        demand_reads=l1_misses - l2_writes, demand_writes=l2_writes,
        hits=l1_misses - l2_misses, misses=l2_misses,
        fills=l2_fills + l2_misses, writebacks=l2_wb, clean_evictions=l2_clean,
    )
    l3.stats = CacheStats(
        demand_reads=l2_misses, demand_writes=0, hits=l2_misses - l3_misses,
        misses=l3_misses, fills=l3_fills, writebacks=l3_wb,
        clean_evictions=l3_clean,
    )
    pf.stats = PrefetchStats(
        queries=l2_misses, covered=int(np.count_nonzero(codes >= L3_HIT + COVERED)),
    )
    # --- retime's columns: L1_READ == L1_HIT and L2_READ == L2_HIT --------
    gap = trace["gap"].astype(np.int64)
    end = np.cumsum(gap + 1)
    counts = np.array([float(c) for c in range(1, int(gap.max(initial=0)) + 2)], dtype=object)
    kind = np.where(codes <= L2_HIT, np.where(written, HIT_WRITE, codes), OTHER)
    kind[trace["dep"] & ~written] = OTHER
    other = kind == OTHER
    return CacheWalk(
        sim=sim, trace=trace, code=code_col, wb_line=wb_col,
        mem_row_hits=int(np.count_nonzero(
            (codes == L3_ROW_HIT) | (codes == L3_ROW_HIT + COVERED)
        )),
        count=counts[gap].tolist(), end=end.tolist(), kind=kind.tolist(),
        load_idx=[*(end[~written] - 1).tolist(), sys.maxsize],
        other=list(zip(
            trace["line"][other].tolist(), codes[other].tolist(),
            written[other].tolist(), trace["dep"][other].tolist(),
        )),
    )


def retime(cache_walk: CacheWalk, base_cpi: float) -> tuple[float, int]:
    """``(cycles, instructions)`` of the walked run at ``base_cpi``.

    Replays only what ``cycles`` depends on — the ROB interval
    arithmetic, MSHR occupancy and the memory pipe — from a fresh core,
    in the reference's exact floating-point operation order, so the
    result equals ``AppSimulator(..., base_cpi=base_cpi).run(n)``'s
    ``(cycles, instructions)`` bit for bit.  Nothing is mutated, so a
    walk can be re-timed at any number of base CPIs (calibration does).

    The in-flight loads are a flat queue: the walk's per-load ROB indices,
    two preallocated ``array('d')`` columns of completion and dispatch
    times filled as the loads dispatch (no float object kept per load),
    and a head index, with the head's completion time held in a local.
    An unfilled slot reads ``inf`` and the index past the last load
    ``sys.maxsize``, so neither commit loop tests for an empty queue.
    L1/L2-hit bundles, about 98 % of them, take a short path
    (:data:`L1_READ`, :data:`L2_READ`, :data:`HIT_WRITE`); the rest go
    through the MSHR file and the memory pipe as the reference does.
    """
    sim = cache_walk.sim
    pipeline_depth = sim.rob.pipeline_depth
    rob_entries = sim.rob.entries
    mshr_cap = sim.mshr.capacity
    mem_config = sim.memory.config
    mem_service = 1.0 / mem_config.bandwidth_lines_per_cycle
    mem_latency = mem_config.latency_cycles
    row_hit_latency = mem_config.row_hit_latency_cycles
    l1_lat = float(sim.config.l1.latency)
    upper_lat = sim._upper_lat
    l3_hit_lat = sim._l3_hit_lat

    # A fresh ReorderBuffer, MSHR file and memory pipe.
    disp_clock = 0.0
    disp_idx = 0
    commit_clock = pipeline_depth
    commit_idx = 0
    inf = float("inf")
    load_idx = cache_walk.load_idx
    q_complete = array("d", [inf]) * len(load_idx)
    q_dispatched = array("d", bytes(8 * len(load_idx)))
    head = tail = 0
    head_complete = inf
    mshr_d: dict[int, float] = {}
    pipe_free = 0.0
    chase_ready = 0.0
    rob_last = rob_entries + 1
    others = iter(cache_walk.other)

    for count, end, kind in zip(cache_walk.count, cache_walk.end, cache_walk.kind):
        # --- rob.dispatch(count) -------------------------------------------
        need = end - rob_last
        if need >= commit_idx and disp_idx > commit_idx:
            # The ROB is full: commit up to min(need, disp_idx - 1).  This
            # commit loop and the two below stay inline: a closure over the
            # queue's locals would turn them into cells and slow every pass.
            if need >= disp_idx:
                need = disp_idx - 1
            while load_idx[head] <= need:
                idx = load_idx[head]
                head_arrival = commit_clock + (idx - commit_idx) * base_cpi
                alt = q_dispatched[head] + pipeline_depth
                if alt > head_arrival:
                    head_arrival = alt
                commit_clock = head_complete if head_complete > head_arrival else head_arrival
                commit_idx = idx + 1
                head += 1
                head_complete = q_complete[head]
            if need >= commit_idx:
                commit_clock += (need - commit_idx + 1) * base_cpi
                commit_idx = need + 1
            disp_clock += count * base_cpi
            if disp_clock < commit_clock:
                disp_clock = commit_clock
        else:
            disp_clock += count * base_cpi
        disp_idx = end
        # Eager retire, one load per pass (commit_upto of the head load).
        horizon = disp_clock - pipeline_depth
        while head_complete <= horizon:
            idx = load_idx[head]
            head_arrival = commit_clock + (idx - commit_idx) * base_cpi
            alt = q_dispatched[head] + pipeline_depth
            if alt > head_arrival:
                head_arrival = alt
            commit_clock = head_complete if head_complete > head_arrival else head_arrival
            commit_idx = idx + 1
            head += 1
            head_complete = q_complete[head]

        # --- latency of the walked outcome --------------------------------
        if kind == L1_READ:
            complete = disp_clock + l1_lat
        elif kind == HIT_WRITE:
            continue
        elif kind == L2_READ:
            complete = disp_clock + upper_lat
        else:
            line, code, is_write, dep = next(others)
            issue = disp_clock
            if dep and not is_write and chase_ready > issue:
                issue = chase_ready
            if code == L1_HIT:
                complete = issue + l1_lat
            elif code == L2_HIT:
                complete = issue + upper_lat
            elif code >= L3_HIT + COVERED:
                # Completes like an L2 hit; a miss still holds the memory pipe.
                if code != L3_HIT + COVERED:
                    req_t = disp_clock + l3_hit_lat
                    pipe_free = (req_t if req_t > pipe_free else pipe_free) + mem_service
                complete = issue + upper_lat
            else:
                if code == L3_HIT:
                    l3_lat = l3_hit_lat
                else:
                    req_t = disp_clock + l3_hit_lat
                    start = req_t if req_t > pipe_free else pipe_free
                    pipe_free = start + mem_service
                    if code == L3_ROW_HIT:
                        ready = start + row_hit_latency
                    else:
                        ready = start + mem_latency
                    l3_lat = l3_hit_lat + (ready - req_t)
                latency = upper_lat + l3_lat
                if latency > upper_lat:
                    if mshr_d:
                        done = [ml for ml, mt in mshr_d.items() if mt <= issue]
                        for ml in done:
                            del mshr_d[ml]
                    if len(mshr_d) >= mshr_cap and line not in mshr_d:
                        issue = min(mshr_d.values())
                        done = [ml for ml, mt in mshr_d.items() if mt <= issue]
                        for ml in done:
                            del mshr_d[ml]
                    complete = issue + latency
                    if line not in mshr_d:
                        mshr_d[line] = complete
                else:
                    complete = issue + latency
            if is_write:
                continue
            if dep:
                chase_ready = complete

        # --- a read joins the in-flight loads ------------------------------
        q_complete[tail] = complete
        q_dispatched[tail] = disp_clock
        if head == tail:
            head_complete = complete
        tail += 1

    # rob.drain(): commit everything dispatched.
    need = disp_idx - 1
    while load_idx[head] <= need:
        idx = load_idx[head]
        head_arrival = commit_clock + (idx - commit_idx) * base_cpi
        alt = q_dispatched[head] + pipeline_depth
        if alt > head_arrival:
            head_arrival = alt
        commit_clock = head_complete if head_complete > head_arrival else head_arrival
        commit_idx = idx + 1
        head += 1
        head_complete = q_complete[head]
    if need >= commit_idx:
        commit_clock += (need - commit_idx + 1) * base_cpi
        commit_idx = need + 1
    return (commit_clock if commit_clock >= disp_clock else disp_clock), commit_idx


@gc_paused()
def characterize(sim, n_instructions: int, *, base_line: int = 0):
    """Kernel counterpart of :meth:`~repro.cpu.core.AppSimulator.run`.

    One :func:`walk`, then the timing pass: the ROB, the CPT's issue
    query and commit update, the MSHR file and memory pipe, the L3
    stream records and the deferred criticality meters.
    """
    from repro.cache.mshr import MshrStats
    from repro.core.criticality import CptStats
    from repro.cpu.core import Stage1Result
    from repro.mem.model import MemoryStats

    cache_walk = walk(sim, n_instructions, base_line=base_line)
    trace = cache_walk.trace
    profile = sim.profile
    wb_lines = iter(cache_walk.wb_line)

    # --- ROB interval model as local scalars ------------------------------
    rob = sim.rob
    base_cpi = rob.base_cpi
    pipeline_depth = rob.pipeline_depth
    rob_entries = rob.entries
    disp_clock = rob.dispatch_clock
    disp_idx = rob.dispatch_index
    commit_clock = rob.commit_clock
    commit_idx = rob.commit_index
    total_stall = rob.total_stall_cycles
    loads_committed = rob.loads_committed
    loads_blocked = rob.loads_blocked
    pending: deque[tuple[int, float, int, float]] = deque(rob._pending)
    pending_append = pending.append
    pending_popleft = pending.popleft

    # --- CPT as a plain dict (insertion order == recency order) -----------
    cpt = sim.cpt
    cpt_table: dict[int, list[int]] = dict(cpt._table)
    cpt_get = cpt_table.get
    cpt_cap = cpt.config.table_entries
    cpt_lookups = cpt.stats.lookups
    cpt_lookup_hits = cpt.stats.lookup_hits
    cpt_inserts = cpt.stats.inserts
    cpt_evictions = cpt.stats.evictions

    # --- MSHR / memory pipe -----------------------------------------------
    mshr_d = sim.mshr._pending
    mshr_cap = sim.mshr.capacity
    mshr_primary = sim.mshr.stats.primary_misses
    mshr_secondary = sim.mshr.stats.secondary_misses

    mem = sim.memory
    mem_service = 1.0 / mem.config.bandwidth_lines_per_cycle
    mem_latency = mem.config.latency_cycles
    row_hit_latency = mem.config.row_hit_latency_cycles
    pipe_free = mem._pipe_free
    mem_queue = mem.stats.total_queue_cycles

    threshold = sim._threshold
    block_cycles = sim._block_cycles
    l1_lat = float(sim.config.l1.latency)
    upper_lat = sim._upper_lat
    l3_hit_lat = sim._l3_hit_lat

    # --- stream columns + per-load bookkeeping ----------------------------
    ts_col: list[float] = []
    line_col: list[int] = []
    pc_col: list[int] = []
    wb_col: list[bool] = []
    load_col: list[bool] = []
    pred_col: list[bool] = []
    nominal_col: list[float] = []
    mlp_col: list[int] = []
    slack_col: list[float] = []
    stall_col: list[float] = []
    ts_append = ts_col.append
    line_append = line_col.append
    pc_append = pc_col.append
    wb_append = wb_col.append
    load_append = load_col.append
    pred_append = pred_col.append
    nominal_append = nominal_col.append
    mlp_append = mlp_col.append
    slack_append = slack_col.append
    stall_append = stall_col.append

    load_pc: list[int] = []
    load_ratio: list[float | None] = []
    load_rec: list[int] = []
    load_pc_append = load_pc.append
    load_ratio_append = load_ratio.append
    load_rec_append = load_rec.append

    line_ratio: dict[int, float | None] = {}
    line_ratio_get = line_ratio.get

    # --- deferred meter events (reduced with batched numpy at the end) ----
    commit_ratios: list[float | None] = []
    commit_blocked: list[bool] = []
    fetch_ratios: list[float | None] = []
    write_ratios: list[float | None] = []
    commit_ratios_append = commit_ratios.append
    commit_blocked_append = commit_blocked.append
    fetch_ratios_append = fetch_ratios.append
    write_ratios_append = write_ratios.append

    def commit_upto(target: int) -> None:
        # ReorderBuffer._commit_upto with the commit-side CPT update and
        # meter deferral fused in (commit handling of the reference loop).
        nonlocal commit_clock, commit_idx, total_stall
        nonlocal loads_committed, loads_blocked, cpt_inserts, cpt_evictions
        while pending and pending[0][0] <= target:
            idx, complete, token, dispatched = pending_popleft()
            head_arrival = commit_clock + (idx - commit_idx) * base_cpi
            alt = dispatched + pipeline_depth
            if alt > head_arrival:
                head_arrival = alt
            stall = complete - head_arrival
            if stall > 0:
                total_stall += stall
                commit_clock = complete
            else:
                stall = 0.0
                commit_clock = head_arrival
            commit_idx = idx + 1
            loads_committed += 1
            if stall >= 1.0:
                loads_blocked += 1
            blocked = stall >= block_cycles
            lpc = load_pc[token]
            entry = cpt_get(lpc)
            if entry is None:
                if len(cpt_table) >= cpt_cap:
                    del cpt_table[next(iter(cpt_table))]
                    cpt_evictions += 1
                cpt_table[lpc] = [1, 1 if blocked else 0]
                cpt_inserts += 1
            elif blocked:
                entry[1] += 1
            commit_ratios_append(load_ratio[token])
            commit_blocked_append(blocked)
            rec = load_rec[token]
            if rec >= 0:
                stall_col[rec] = stall
        if target >= commit_idx:
            commit_clock += (target - commit_idx + 1) * base_cpi
            commit_idx = target + 1

    chase_ready = 0.0
    for gap, pc, line, is_write, dep, code in zip(
        trace["gap"].tolist(), trace["pc"].tolist(), trace["line"].tolist(),
        trace["is_write"].tolist(), trace["dep"].tolist(), cache_walk.code,
    ):
        # --- rob.dispatch(gap + 1), commits handled inline ----------------
        count = gap + 1
        new_index = disp_idx + count
        need = new_index - 1 - rob_entries
        limit = disp_idx - 1
        if limit < need:
            need = limit
        if need >= commit_idx:
            commit_upto(need)
            disp_clock += count * base_cpi
            if disp_clock < commit_clock:
                disp_clock = commit_clock
        else:
            disp_clock += count * base_cpi
        disp_idx = new_index
        # Eager retire, one load per pass (commit_upto of the head load),
        # inlined: the loop's most frequent commit.
        horizon = disp_clock - pipeline_depth
        while pending and pending[0][1] <= horizon:
            idx, complete, token, dispatched = pending_popleft()
            head_arrival = commit_clock + (idx - commit_idx) * base_cpi
            alt = dispatched + pipeline_depth
            if alt > head_arrival:
                head_arrival = alt
            stall = complete - head_arrival
            if stall > 0:
                total_stall += stall
                commit_clock = complete
            else:
                stall = 0.0
                commit_clock = head_arrival
            commit_idx = idx + 1
            loads_committed += 1
            if stall >= 1.0:
                loads_blocked += 1
            blocked = stall >= block_cycles
            lpc = load_pc[token]
            entry = cpt_get(lpc)
            if entry is None:
                if len(cpt_table) >= cpt_cap:
                    del cpt_table[next(iter(cpt_table))]
                    cpt_evictions += 1
                cpt_table[lpc] = [1, 1 if blocked else 0]
                cpt_inserts += 1
            elif blocked:
                entry[1] += 1
            commit_ratios_append(load_ratio[token])
            commit_blocked_append(blocked)
            rec = load_rec[token]
            if rec >= 0:
                stall_col[rec] = stall
        now = disp_clock

        # --- issue-side CPT query (loads only) ----------------------------
        if is_write:
            ratio = None
            predicted = False
        else:
            cpt_lookups += 1
            entry = cpt_get(pc)
            if entry is None:
                ratio = None
                predicted = False
            else:
                cpt_lookup_hits += 1
                del cpt_table[pc]
                cpt_table[pc] = entry
                n0 = entry[0]
                ratio = entry[1] / n0 if n0 else 0.0
                entry[0] = n0 + 1
                predicted = ratio >= threshold

        # --- the walked outcome -------------------------------------------
        if code >= WB:
            # _emit_writeback: stream record (the L3 absorbed it in the walk).
            for _ in range(code // WB):
                wline = next(wb_lines)
                ts_append(now)
                line_append(wline)
                pc_append(0)
                wb_append(True)
                load_append(False)
                pred_append(False)
                nominal_append(0.0)
                mlp_append(1)
                slack_append(0.0)
                stall_append(0.0)
                write_ratios_append(line_ratio_get(wline))
            code &= WB - 1
        rec_idx = -1
        if code == L1_HIT:
            latency = l1_lat
        elif code == L2_HIT:
            latency = upper_lat
        else:
            # --- L3 reference (fetch) -------------------------------------
            if code == L3_HIT or code == L3_HIT + COVERED:
                hit3 = True
                l3_lat = l3_hit_lat
            else:
                req_t = now + l3_hit_lat
                start = req_t if req_t > pipe_free else pipe_free
                pipe_free = start + mem_service
                mem_queue += start - req_t
                if code == L3_ROW_HIT or code == L3_ROW_HIT + COVERED:
                    ready = start + row_hit_latency
                else:
                    ready = start + mem_latency
                hit3 = False
                l3_lat = l3_hit_lat + (ready - req_t)
            if code >= L3_HIT + COVERED:
                latency = upper_lat
                ratio = None
                predicted = False
            else:
                latency = upper_lat + l3_lat
            rec_idx = len(ts_col)
            ts_append(now)
            line_append(line)
            pc_append(pc)
            wb_append(False)
            load_append(not is_write and code < L3_HIT + COVERED)
            pred_append(predicted)
            nominal_append(l3_lat)
            free = rob_entries - (disp_idx - commit_idx)
            slack_append((free if free > 0 else 0) * base_cpi)
            stall_append(0.0)
            line_ratio[line] = ratio
            if not hit3:
                fetch_ratios_append(ratio)
                write_ratios_append(ratio)

        # --- issue timing ------------------------------------------------
        issue = now
        if dep and not is_write:
            if chase_ready > issue:
                issue = chase_ready
        if rec_idx >= 0:
            if latency > upper_lat:
                if mshr_d:
                    done = [ml for ml, mt in mshr_d.items() if mt <= issue]
                    for ml in done:
                        del mshr_d[ml]
                if len(mshr_d) >= mshr_cap and line not in mshr_d:
                    issue = min(mshr_d.values())
                    done = [ml for ml, mt in mshr_d.items() if mt <= issue]
                    for ml in done:
                        del mshr_d[ml]
                complete = issue + latency
                if line in mshr_d:
                    mshr_secondary += 1
                else:
                    mshr_d[line] = complete
                    mshr_primary += 1
                outstanding = len(mshr_d)
                mlp_append(outstanding if outstanding > 1 else 1)
            else:
                complete = issue + latency
                mlp_append(1)
        else:
            complete = issue + latency

        if dep and not is_write:
            chase_ready = complete

        if not is_write:
            token = len(load_pc)
            load_pc_append(pc)
            load_ratio_append(ratio)
            load_rec_append(rec_idx)
            pending_append((disp_idx - 1, complete, token, disp_clock))

    commit_upto(disp_idx - 1)  # rob.drain()

    # --- batched meter reduction ------------------------------------------
    meters = sim.meters
    cuts = meters._cuts
    nan = float("nan")
    if commit_ratios:
        ratios = np.array(
            [nan if r is None else r for r in commit_ratios], dtype=np.float64
        )
        mask = ratios[:, None] >= cuts  # NaN rows -> all-False, like None
        blocked_arr = np.array(commit_blocked, dtype=bool)
        tp = mask[blocked_arr].sum(axis=0, dtype=np.int64)
        meters.loads += len(commit_ratios)
        meters.blocked_loads += int(np.count_nonzero(blocked_arr))
        meters.predicted_critical += mask.sum(axis=0, dtype=np.int64)
        meters.true_positive += tp
        meters.agree += tp + (~mask[~blocked_arr]).sum(axis=0, dtype=np.int64)
    if fetch_ratios:
        ratios = np.array(
            [nan if r is None else r for r in fetch_ratios], dtype=np.float64
        )
        meters.fetches += len(fetch_ratios)
        meters.noncritical_fetches += (~(ratios[:, None] >= cuts)).sum(
            axis=0, dtype=np.int64
        )
    if write_ratios:
        ratios = np.array(
            [nan if r is None else r for r in write_ratios], dtype=np.float64
        )
        meters.writes += len(write_ratios)
        meters.noncritical_writes += (~(ratios[:, None] >= cuts)).sum(
            axis=0, dtype=np.int64
        )

    # --- transfer state/statistics back into the live objects -------------
    rob.dispatch_clock = disp_clock
    rob.dispatch_index = disp_idx
    rob.commit_clock = commit_clock
    rob.commit_index = commit_idx
    rob.total_stall_cycles = total_stall
    rob.loads_committed = loads_committed
    rob.loads_blocked = loads_blocked
    rob._pending = pending

    sim.mshr.stats = MshrStats(
        primary_misses=mshr_primary, secondary_misses=mshr_secondary,
    )
    cpt.stats = CptStats(
        lookups=cpt_lookups, lookup_hits=cpt_lookup_hits,
        inserts=cpt_inserts, evictions=cpt_evictions,
    )
    cpt._table = OrderedDict(cpt_table)
    mem._pipe_free = pipe_free
    mem.stats = MemoryStats(
        requests=mem.stats.requests + sim.l3.stats.misses,
        row_hits=mem.stats.row_hits + cache_walk.mem_row_hits,
        total_queue_cycles=mem_queue,
    )

    stream = sim._finalize_stream(
        ts_col, line_col, pc_col, wb_col, load_col, pred_col,
        nominal_col, mlp_col, slack_col, stall_col,
    )
    return Stage1Result(
        app=profile.name,
        instructions=commit_idx,
        cycles=commit_clock if commit_clock >= disp_clock else disp_clock,
        base_cpi=sim.base_cpi,
        stream=stream,
        meters=meters,
        l1_stats=sim.l1d.stats,
        l2_stats=sim.l2.stats,
        l3_stats=sim.l3.stats,
        mshr_stats=sim.mshr.stats,
        cpt_stats=cpt.stats,
        mem_queue_cycles=mem.stats.mean_queue_cycles,
    )
