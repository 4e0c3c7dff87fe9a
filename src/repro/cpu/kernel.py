"""Vectorized stage-1 characterisation kernel (the un-instrumented fast path).

The stage-1 hot loop replays hundreds of thousands of trace bundles; the
reference implementation (:meth:`~repro.cpu.core.AppSimulator.run`) walks
the full object graph per record — :meth:`~repro.cache.cache.Cache.access`
(one frozen ``AccessResult`` per level), :meth:`~repro.cpu.rob.
ReorderBuffer.dispatch` (one ``CommittedLoad`` per retired load),
:meth:`~repro.core.criticality.CriticalityMeters.load_committed` (three
numpy element-wise ops per commit) and method dispatch for the CPT, MSHR
file, stream prefetcher and memory pipe.  This module replays the same
bundle chunks with

* the live per-set tag dicts (:meth:`~repro.cache.lru.SetAssocArray.set_views`)
  mutated in place — a hit is one C-level ``pop`` + re-insert, a fill
  evicts ``next(iter(ways))``; the ``Cache`` objects' arrays *are* the
  kernel's L1/L2/L3 state, so the final content needs no translation;
* the warm-up installed in closed form (:func:`warm_caches`): each set's
  steady-state survivors are computed with numpy and written into those
  same dicts, one ``dict.update`` per set instead of one
  ``Cache.allocate`` per line;
* the ROB interval arithmetic, CPT issue-query/commit-update, MSHR
  occupancy, stream-prefetch detector and open-row memory pipe inlined as
  local scalars and plain dicts (zero per-record allocations), preserving
  the reference's exact floating-point operation order;
* the criticality meters **deferred**: per-event ``(ratio, blocked)``
  tuples are collected and reduced with batched numpy sums at the end
  (the meter updates are commutative integer adds, unlike the CPT's
  order-sensitive issue/commit interleaving, which stays inline).

Equivalence contract: the closed-form warm-up leaves the same per-set
content as the reference ``AppSimulator._warm_caches`` (its oracle),
and for every supported configuration the kernel produces a
**field-for-field identical**
:class:`~repro.cpu.core.Stage1Result` to the reference path — Table II
statistics, criticality meters and the full L3 reference stream
including ``stall``/``slack``/``mlp``.  Statistics are transferred back
into the live objects (cache/MSHR/CPT/prefetch/memory stats, ROB clocks,
CPT table) so the simulator reads identically afterwards.

The kernel only drives caches in their native-LRU, un-degraded mode;
:func:`kernel_supported` is the single gate (see
:meth:`~repro.cpu.core.AppSimulator.run`'s ``use_kernel`` tri-state).
"""

from __future__ import annotations

from collections import OrderedDict, deque

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
    _install_lru(sim.l3, _range_lines(*sets["l3"]) + base_line)


def _range_lines(*blocks: range) -> np.ndarray:
    """Concatenate ``range`` blocks into one int64 line array."""
    return np.concatenate(
        [np.arange(b.start, b.stop, b.step, dtype=np.int64) for b in blocks]
    )


def _install_lru(cache, lines: np.ndarray, dirty: np.ndarray | None = None) -> None:
    """Leave ``cache`` as LRU-filling an empty cache with ``lines`` would."""
    from repro.cache.cache import CacheStats

    views = cache._array.set_views()
    if any(views):
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
    kept_sets = set_idx[keep]
    sets_l, firsts = np.unique(kept_sets, return_index=True)
    bounds = np.r_[firsts, len(keep)].tolist()
    line_l = lines[keep].tolist()
    if dirty is None:
        payloads = [[False, None] for _ in line_l]
    else:
        payloads = [[d, None] for d in dirty[keep].tolist()]
    for s, lo, hi in zip(sets_l.tolist(), bounds, bounds[1:]):
        views[s].update(zip(line_l[lo:hi], payloads[lo:hi]))


def characterize(sim, n_instructions: int, *, base_line: int = 0):
    """Kernel counterpart of :meth:`~repro.cpu.core.AppSimulator.run`."""
    from repro.cache.cache import CacheStats
    from repro.cache.mshr import MshrStats
    from repro.core.criticality import CptStats
    from repro.cpu.core import _CHUNK_BUNDLES, Stage1Result
    from repro.cpu.prefetch import PrefetchStats
    from repro.mem.model import MemoryStats

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
    l3_sets = l3._array.set_views()
    l1_mask = l1.num_sets - 1
    l2_mask = l2.num_sets - 1
    l3_mask = l3.num_sets - 1
    l1_assoc = l1.config.assoc
    l2_assoc = l2.config.assoc
    l3_assoc = l3.config.assoc
    l1_dr = l1_dw = l1_hits = l1_misses = l1_fills = l1_wb = l1_clean = 0
    l2_dr = l2_dw = l2_hits = l2_misses = l2_fills = l2_wb = l2_clean = 0
    l3_dr = l3_hits = l3_misses = l3_fills = l3_wb = l3_clean = 0

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

    # --- MSHR / prefetcher / memory pipe ----------------------------------
    mshr_d = sim.mshr._pending
    mshr_cap = sim.mshr.capacity
    mshr_primary = sim.mshr.stats.primary_misses
    mshr_secondary = sim.mshr.stats.secondary_misses

    pf = sim.prefetcher
    pf_d = pf._last
    pf_get = pf_d.get
    pf_move = pf_d.move_to_end
    pf_pop = pf_d.popitem
    pf_shift = pf.region_shift
    pf_stride = pf.max_stride
    pf_max = pf.max_regions
    pf_queries = pf.stats.queries
    pf_covered = pf.stats.covered

    mem = sim.memory
    mem_service = 1.0 / mem.config.bandwidth_lines_per_cycle
    mem_latency = mem.config.latency_cycles
    row_hit_latency = mem.config.row_hit_latency_cycles
    row_shift = mem._row_shift
    bank_mask = mem._bank_mask
    open_rows = mem._open_rows
    open_get = open_rows.get
    pipe_free = mem._pipe_free
    mem_requests = mem.stats.requests
    mem_row_hits = mem.stats.row_hits
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

    def emit_writeback(wline: int, now: float) -> None:
        # AppSimulator._emit_writeback: stream record + nominal-L3 absorb.
        nonlocal l3_fills, l3_wb, l3_clean
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
        ways3 = l3_sets[wline & l3_mask]
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
        write_ratios_append(line_ratio_get(wline))

    chase_ready = 0.0
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

        gaps = trace["gap"].tolist()
        pcs = trace["pc"].tolist()
        lines = trace["line"].tolist()
        writes = trace["is_write"].tolist()
        deps = trace["dep"].tolist()

        for gap, pc, line, is_write, dep in zip(gaps, pcs, lines, writes, deps):
            # --- rob.dispatch(gap + 1), commits handled inline ------------
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
            while pending and pending[0][1] <= disp_clock - pipeline_depth:
                commit_upto(pending[0][0])
            now = disp_clock

            # --- issue-side CPT query (loads only) ------------------------
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

            # --- cache walk ----------------------------------------------
            rec_idx = -1
            if is_write:
                l1_dw += 1
            else:
                l1_dr += 1
            ways1 = l1_sets[line & l1_mask]
            entry1 = ways1.pop(line, None)
            if entry1 is not None:
                ways1[line] = entry1
                l1_hits += 1
                if is_write:
                    entry1[0] = True
                latency = l1_lat
            else:
                l1_misses += 1
                l1_fills += 1
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
                        dirty_victim = -1
                        if len(ways2v) >= l2_assoc:
                            wline = next(iter(ways2v))
                            wentry = ways2v.pop(wline)
                            if wentry[0]:
                                l2_wb += 1
                                dirty_victim = wline
                            else:
                                l2_clean += 1
                        ways2v[vline1] = [True, None]
                        if dirty_victim >= 0:
                            emit_writeback(dirty_victim, now)
                if is_write:
                    l2_dw += 1
                else:
                    l2_dr += 1
                ways2 = l2_sets[line & l2_mask]
                entry2 = ways2.pop(line, None)
                if entry2 is not None:
                    ways2[line] = entry2
                    l2_hits += 1
                    if is_write:
                        entry2[0] = True
                    latency = upper_lat
                else:
                    l2_misses += 1
                    l2_fills += 1
                    dirty_victim = -1
                    if len(ways2) >= l2_assoc:
                        wline = next(iter(ways2))
                        wentry = ways2.pop(wline)
                        if wentry[0]:
                            l2_wb += 1
                            dirty_victim = wline
                        else:
                            l2_clean += 1
                    ways2[line] = [is_write, None]
                    if dirty_victim >= 0:
                        emit_writeback(dirty_victim, now)

                    # --- L3 reference (fetch) -------------------------
                    pf_queries += 1
                    region = line >> pf_shift
                    last = pf_get(region)
                    if last is None:
                        if len(pf_d) >= pf_max:
                            pf_pop(last=False)
                    else:
                        pf_move(region)
                    pf_d[region] = line
                    if last is not None and 0 < line - last <= pf_stride:
                        pf_covered += 1
                        covered = True
                    else:
                        covered = False

                    l3_dr += 1
                    ways3 = l3_sets[line & l3_mask]
                    entry3 = ways3.pop(line, None)
                    if entry3 is not None:
                        ways3[line] = entry3
                        l3_hits += 1
                        hit3 = True
                        l3_lat = l3_hit_lat
                    else:
                        l3_misses += 1
                        l3_fills += 1
                        if len(ways3) >= l3_assoc:
                            victim3 = ways3.pop(next(iter(ways3)))
                            if victim3[0]:
                                l3_wb += 1
                            else:
                                l3_clean += 1
                        ways3[line] = [False, None]
                        req_t = now + l3_hit_lat
                        start = req_t if req_t > pipe_free else pipe_free
                        pipe_free = start + mem_service
                        mem_requests += 1
                        mem_queue += start - req_t
                        row = line >> row_shift
                        bank = row & bank_mask
                        if open_get(bank) == row:
                            mem_row_hits += 1
                            ready = start + row_hit_latency
                        else:
                            open_rows[bank] = row
                            ready = start + mem_latency
                        hit3 = False
                        l3_lat = l3_hit_lat + (ready - req_t)

                    if covered:
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
                    load_append(not is_write and not covered)
                    pred_append(predicted)
                    nominal_append(l3_lat)
                    free = rob_entries - (disp_idx - commit_idx)
                    slack_append((free if free > 0 else 0) * base_cpi)
                    stall_append(0.0)
                    line_ratio[line] = ratio
                    if not hit3:
                        fetch_ratios_append(ratio)
                        write_ratios_append(ratio)

            # --- issue timing --------------------------------------------
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

    l1.stats = CacheStats(
        demand_reads=l1_dr, demand_writes=l1_dw, hits=l1_hits,
        misses=l1_misses, fills=l1_fills, writebacks=l1_wb,
        clean_evictions=l1_clean,
    )
    l2.stats = CacheStats(
        demand_reads=l2_dr, demand_writes=l2_dw, hits=l2_hits,
        misses=l2_misses, fills=l2_fills, writebacks=l2_wb,
        clean_evictions=l2_clean,
    )
    l3.stats = CacheStats(
        demand_reads=l3_dr, demand_writes=0, hits=l3_hits,
        misses=l3_misses, fills=l3_fills, writebacks=l3_wb,
        clean_evictions=l3_clean,
    )
    sim.mshr.stats = MshrStats(
        primary_misses=mshr_primary, secondary_misses=mshr_secondary,
    )
    cpt.stats = CptStats(
        lookups=cpt_lookups, lookup_hits=cpt_lookup_hits,
        inserts=cpt_inserts, evictions=cpt_evictions,
    )
    cpt._table = OrderedDict(cpt_table)
    pf.stats = PrefetchStats(queries=pf_queries, covered=pf_covered)
    mem._pipe_free = pipe_free
    mem.stats = MemoryStats(
        requests=mem_requests, row_hits=mem_row_hits,
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
        l1_stats=l1.stats,
        l2_stats=l2.stats,
        l3_stats=l3.stats,
        mshr_stats=sim.mshr.stats,
        cpt_stats=cpt.stats,
        mem_queue_cycles=mem.stats.mean_queue_cycles,
    )
