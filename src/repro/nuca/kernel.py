"""Vectorized stage-2 replay kernel (the un-instrumented fast path).

The stage-2 hot loop replays millions of merged LLC references; the
reference implementation walks the full object graph per record
(:meth:`~repro.nuca.llc.NucaLLC.fetch` -> policy -> per-set dict
:class:`~repro.cache.cache.Cache` -> :class:`~repro.noc.mesh.Mesh` ->
:class:`~repro.reram.wear.WearTracker`).  This module replays the same
stream against **array-backed bank state** (:class:`ArrayBanks`: numpy
``(sets x ways)`` tag/age/dirty matrices plus a line->frame index dict)
and batches all side-channel accounting:

* criticality-blind policies (S-NUCA, R-NUCA, Private) get their bank
  vector, NoC latencies (through the mesh's precomputed distance matrix)
  and per-record hit latencies computed vectorized up front; the scalar
  loop only runs the sequential parts (LRU state, the in-order memory
  pipe), and wear / hop / message totals are reduced with
  ``np.bincount``-style operations afterwards;
* Naive keeps its exact directory + min-write-bank oracle (placement
  feeds back through wear, so it stays scalar) on the array engine;
* Re-NUCA keeps its in-order CPT feedback loop and real enhanced-TLB
  objects, but with hoisted locals, the array bank engine and per-record
  candidate banks computed from small precomputed tables.

The warm state the kernel replays from is built directly as arrays by
:func:`warm_state` (the closed form of the reference warm-up), so the
kernel path never fills the per-bank ``Cache`` objects at all.

Equivalence contract: for every supported configuration the kernel
produces **field-for-field identical** :class:`~repro.sim.metrics.\
WorkloadSchemeResult`s to the reference path (including float fields —
all floating-point accumulation replicates the reference's operation
order).  The kernel transfers *statistics* back into the live objects
(LLC stats, mesh traffic, wear counters, memory pipe/row state, policy
counters); the per-bank ``Cache`` objects stay empty — nothing on the
un-instrumented path reads them.

The kernel never engages when telemetry or fault injection is attached
(those need the object graph's event hooks); :func:`kernel_fallback_reason`
is the single gate.
"""

from __future__ import annotations

import numpy as np

from repro.cache.lru import lru_survivors
from repro.common.errors import SimulationError
from repro.nuca.naive import NaivePolicy
from repro.nuca.private import PrivatePolicy
from repro.nuca.rnuca import RNucaPolicy
from repro.nuca.snuca import SNucaPolicy


class ArrayBanks:
    """All L3 banks' tag state as flat numpy matrices.

    Sets of every bank are stacked into one global set space
    (``global_set = bank * num_sets + set``); each row holds one set's
    ``assoc`` ways.  Recency is a monotonically increasing global stamp
    (``age``): with native LRU and no invalidations the OrderedDict
    recency order of the reference cache is exactly the ascending stamp
    order, so the eviction victim is ``argmin(age[set])``.

    ``index`` maps resident line addresses to flat frame positions
    (``global_set * assoc + way``) for O(1) probes from scalar loops.
    It may be partial (see :meth:`prefill_many` with ``index=False``):
    the replay loops treat it as a memo — an index miss falls back to a
    16-way scan of the home set's tags, whose result is memoised, and
    victim eviction drops at most a hint (``pop`` with default), which
    the next scan rebuilds.
    """

    def __init__(self, num_banks: int, num_sets: int, assoc: int, index_shift: int) -> None:
        total_sets = num_banks * num_sets
        self.num_banks = num_banks
        self.num_sets = num_sets
        self.assoc = assoc
        self.index_shift = index_shift
        self.tags = np.full((total_sets, assoc), -1, dtype=np.int64)
        self.age = np.zeros((total_sets, assoc), dtype=np.int64)
        self.dirty = np.zeros((total_sets, assoc), dtype=bool)
        self.owner = np.zeros((total_sets, assoc), dtype=np.int16)
        self.critical = np.zeros((total_sets, assoc), dtype=bool)
        self.occ = np.zeros(total_sets, dtype=np.int64)
        self.index: dict[int, int] = {}
        self.clock = 0

    @classmethod
    def for_llc(cls, llc) -> "ArrayBanks":
        """Empty arrays with an LLC's bank geometry."""
        cache0 = llc.banks[0].cache
        return cls(
            len(llc.banks), cache0.num_sets, cache0.config.assoc, cache0.index_shift
        )

    def prefill_many(
        self,
        lines: np.ndarray,
        gsets: np.ndarray,
        *,
        dirty: np.ndarray | None = None,
        owner: np.ndarray | None = None,
        critical: np.ndarray | None = None,
        index: bool = True,
    ) -> None:
        """Batched install of resident lines (warm-up scatter).

        ``lines[i]`` is installed into global set ``gsets[i]``; lines of
        the same set must appear in LRU -> MRU order (their recency
        stamps follow input order).  All entries land in free ways — a
        batch that would overflow a set raises, as warm-up never evicts.

        ``index=False`` skips populating the probe ``index`` (and with
        it the batch duplicate check): the replay loops resolve index
        misses by scanning the home set's tags and memoising the hit, so
        prebuilding entries for every warm line — the single most
        expensive part of installing a full LLC — is wasted work there.
        """
        n = len(lines)
        if n == 0:
            return
        lines = np.asarray(lines, dtype=np.int64)
        gsets = np.asarray(gsets, dtype=np.int64)
        if np.all(gsets[:-1] <= gsets[1:]):
            # Already set-ordered (the warm_state path): skip the argsort.
            s = gsets
            sorted_lines = lines
            stamps = self.clock + np.arange(n, dtype=np.int64)
            order = None
        else:
            order = np.argsort(gsets, kind="stable")
            s = gsets[order]
            sorted_lines = lines[order]
            stamps = self.clock + order
        starts = np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1])))
        counts = np.diff(np.concatenate((starts, [n])))
        ways = np.arange(n, dtype=np.int64) - np.repeat(starts, counts) + self.occ[s]
        if int(ways.max()) >= self.assoc:
            raise SimulationError("prefill_many overflows a set (warm-up never evicts)")
        pos = s * self.assoc + ways
        self.tags.reshape(-1)[pos] = sorted_lines
        self.age.reshape(-1)[pos] = stamps
        self.clock += n
        if dirty is not None:
            dirty = np.asarray(dirty, dtype=bool)
            self.dirty.reshape(-1)[pos] = dirty if order is None else dirty[order]
        if owner is not None:
            owner = np.asarray(owner, dtype=np.int16)
            self.owner.reshape(-1)[pos] = owner if order is None else owner[order]
        if critical is not None:
            critical = np.asarray(critical, dtype=bool)
            self.critical.reshape(-1)[pos] = (
                critical if order is None else critical[order]
            )
        self.occ[s[starts]] += counts
        if index:
            before = len(self.index)
            self.index.update(zip(sorted_lines.tolist(), pos.tolist()))
            if len(self.index) != before + n:
                raise SimulationError(
                    "duplicate line address in prefill_many batch"
                )


#: Why a run took the reference replay, one name per refusal of
#: :func:`kernel_fallback_reason` plus ``env`` (``REPRO_KERNEL=0``) and
#: ``pinned`` (``use_kernel=False``), which the runner decides.
FALLBACK_REASONS = ("telemetry", "faults", "policy", "cache-mode", "env", "pinned")


def kernel_fallback_reason(llc) -> str | None:
    """Why the kernel cannot replay this LLC bit-exactly (None: it can).

    The kernel handles the pristine, un-instrumented configuration of the
    five paper schemes: no telemetry or NoC link tracking (``telemetry``),
    no fault injection or per-line wear histogram (``faults``), one of
    the five paper policies (``policy``; D-NUCA's migration stays on the
    reference graph), native LRU with full associativity and zero set
    rotation (``cache-mode``).  Everything it checks is fixed when the
    LLC is built, so the answer is the same before and after warm-up.
    """
    if llc.telemetry is not None or llc.mesh.track_links:
        return "telemetry"
    if llc.faults is not None or llc.wear.track_lines:
        return "faults"
    ptype = type(llc.policy)
    if ptype not in (SNucaPolicy, RNucaPolicy, PrivatePolicy, NaivePolicy):
        from repro.core.renuca import ReNucaPolicy

        if ptype is not ReNucaPolicy:
            return "policy"
    for bank in llc.banks:
        cache = bank.cache
        if cache.rotation or cache.has_way_limits or cache.replacement != "lru":
            return "cache-mode"
    return None


def kernel_supported(llc) -> bool:
    """True when the fast kernel can replay this LLC bit-exactly."""
    return kernel_fallback_reason(llc) is None


def _static_banks(policy, core: np.ndarray, line: np.ndarray) -> np.ndarray:
    """Vectorized ``place``/``locate`` of S-NUCA, Private and R-NUCA."""
    ptype = type(policy)
    if ptype is SNucaPolicy:
        return line & (policy.num_banks - 1)
    if ptype is PrivatePolicy:
        return core.astype(np.int64)
    rids = np.asarray(policy.rids, dtype=np.int64)
    idx = (line + rids[core] + 1) & (policy.cluster_size - 1)
    return np.asarray(policy.clusters, dtype=np.int64)[core, idx]


def warm_state(llc, lines, cores, critical) -> ArrayBanks:
    """The warmed LLC as arrays: the kernel path's closed-form warm-up.

    ``lines``/``cores``/``critical`` are the whole warm stream in install
    order (what the reference warm-up feeds ``NucaLLC.prefill_many``).
    The stream must be duplicate-free, so every line misses and is
    filled, and each placement is a pure function of (core, line,
    critical) — Naive's min-write placement starting from zero wear is
    round-robin over the banks, ties going to the lowest.  Under LRU
    with no hits each set then ends holding the last ``assoc`` lines
    inserted into it, in insertion order; warm-up wear is a bincount of
    the fill banks (added to ``llc.wear``, for the caller to reset).
    The policy metadata the replay reads is installed for the
    survivors: Naive's directory, and Re-NUCA's TLB Mapping Bits (the
    critical survivors OR-ed per page).  Dirty flags stay all-false.
    """
    lines = np.asarray(lines, dtype=np.int64)
    cores = np.asarray(cores, dtype=np.int64)
    critical = np.asarray(critical, dtype=bool)
    n = len(lines)
    ordered = np.sort(lines)
    if (ordered[1:] == ordered[:-1]).any():
        raise SimulationError(
            "warm stream repeats a line; the array warm-up needs a miss-only stream"
        )
    state = ArrayBanks.for_llc(llc)
    policy = llc.policy
    ptype = type(policy)
    if ptype is NaivePolicy:
        bank = np.arange(n, dtype=np.int64) % policy.num_banks
    elif ptype in (SNucaPolicy, PrivatePolicy, RNucaPolicy):
        bank = _static_banks(policy, cores, lines)
    else:  # Re-NUCA: critical fills near the core, the rest spread.
        bank = np.where(
            critical,
            _static_banks(policy._rnuca, cores, lines),
            _static_banks(policy._snuca, cores, lines),
        )
    gset = bank * state.num_sets + (
        (lines >> state.index_shift) & (state.num_sets - 1)
    )
    keep = lru_survivors(gset, state.assoc)
    state.prefill_many(
        lines[keep], gset[keep],
        owner=cores[keep], critical=critical[keep], index=False,
    )
    llc.wear.add_writes(np.bincount(bank, minlength=llc.wear.num_banks))
    if ptype is NaivePolicy:
        policy._directory.update(zip(lines[keep].tolist(), bank[keep].tolist()))
    elif ptype not in (SNucaPolicy, PrivatePolicy, RNucaPolicy):
        mapped = keep[critical[keep]]
        for core, tlb in enumerate(policy.tlbs):
            mine = cores == core
            tlb.load_warm_state(lines[mine], lines[mapped[cores[mapped] == core]])
    return state


def replay(
    llc, merged, *, state: ArrayBanks, cpts=None, threshold=0.0, block_cycles=0.0,
) -> np.ndarray:
    """Replay a merged stream through the kernel; returns per-record latency.

    Drop-in replacement for the reference measured loop: ``state`` is
    the warm state from :func:`warm_state` (consumed: the replay mutates
    it), ``llc`` the measurement-reset controller whose statistics and
    policy metadata the replay updates, ``merged`` the runner's
    ``_MergedStream``.  ``cpts``/``threshold``/``block_cycles`` feed the
    Re-NUCA criticality loop and are ignored by the blind policies.
    """
    policy = llc.policy
    ptype = type(policy)
    if ptype in (SNucaPolicy, PrivatePolicy, RNucaPolicy):
        # S-NUCA's bank is a pure function of the line address, so a
        # line is resident in at most one set — probe hints can skip
        # the home-set guard.
        return _replay_static(
            llc, merged, state,
            _static_banks(policy, merged.core.astype(np.int64), merged.line),
            multi_copy=ptype is not SNucaPolicy,
        )
    if ptype is NaivePolicy:
        return _replay_naive(llc, merged, state)
    from repro.core.renuca import ReNucaPolicy

    if ptype is ReNucaPolicy:
        return _replay_renuca(llc, merged, state, cpts, threshold, block_cycles)
    raise SimulationError(f"replay kernel cannot drive policy {policy.name!r}")


def _mem_params(memory) -> tuple[float, float, int, int, int, float, dict]:
    """Hoist the memory model's constants and sequential pipe state."""
    cfg = memory.config
    return (
        1.0 / cfg.bandwidth_lines_per_cycle,
        float(memory._pipe_free),
        cfg.latency_cycles,
        cfg.row_hit_latency_cycles,
        memory._bank_mask,
        memory._row_shift,
        dict(memory._open_rows),
    )


def _replay_static(llc, merged, state, bank_vec, *, multi_copy: bool) -> np.ndarray:
    """S-NUCA / R-NUCA / Private: pure-function mapping, no criticality.

    Everything derivable from (core, line) alone is vectorized up front;
    the scalar loop carries only the genuinely sequential state — LRU
    recency, set occupancy and the in-order memory pipe.  ``multi_copy``
    marks mappings that depend on the requesting core (R-NUCA, Private),
    where one line can be resident in several banks and a probe hint
    must be checked against the record's home set.
    """
    mesh = llc.mesh
    config = llc.config
    bank0 = llc.banks[0]
    n = merged.total
    pen = float(llc.policy.lookup_penalty)

    dist = mesh.distance_matrix()
    hop = config.noc.hop_cycles
    core = merged.core.astype(np.int64)
    line = merged.line
    bank = np.asarray(bank_vec, dtype=np.int64)
    mcs = np.asarray(mesh.memory_controllers, dtype=np.int64)
    mc = mcs[(line >> 4) % len(mcs)]
    d_cb = dist[core, bank].astype(np.int64)
    d_bmc = dist[bank, mc].astype(np.int64)
    d_mcc = dist[mc, core].astype(np.int64)
    # Reference op order: (penalty + round_trip) + read_latency, and
    # (now + penalty) + (send + tag + send) — kept bit-exact in float64.
    hit_lat = (pen + 2 * d_cb * hop) + bank0.read_latency
    to_mc = d_cb * hop + bank0.tag_latency + d_bmc * hop
    ret = d_mcc * hop
    rt_hops = 2 * d_cb
    miss_hops = d_cb + d_bmc + d_mcc

    gset = bank * state.num_sets + ((line >> state.index_shift) & (state.num_sets - 1))
    wb_arr = merged.is_wb

    # Only the columns the scalar loop reads become Python lists.
    line_l = line.tolist()
    gset_l = gset.tolist()
    wb_l = wb_arr.tolist()
    ts_l = merged.ts.tolist()
    hit_lat_l = hit_lat.tolist()
    to_mc_l = to_mc.tolist()
    ret_l = ret.tolist()

    service, pipe_free, miss_cycles, rowhit_cycles, dram_mask, row_shift, open_rows = (
        _mem_params(llc.memory)
    )
    open_get = open_rows.get
    index = state.index
    index_get = index.get
    index_pop = index.pop
    # Loop-local list views of the array state: per-record loads/stores on
    # Python lists cost a fraction of numpy scalar indexing, and nothing
    # here needs elementwise numpy until the batched reductions below.
    tags_f = state.tags.reshape(-1).tolist()
    occ_l = state.occ.tolist()
    assoc = state.assoc
    # Warm recency starts at all-zero: within a set the warm ways are
    # already in LRU -> MRU order, and ``seg.index(min(seg))`` resolves
    # ties to the lowest way — exactly the warm LRU.  Every touch stamps
    # ``stamp0 + i`` (> 0), so touched lines outrank untouched warm ones
    # and each other in record order, matching the reference's clock.
    age_f = [0] * len(tags_f)
    dirty_f = state.dirty.reshape(-1).tolist()
    stamp0 = state.clock
    hits = bytearray(n)
    lat_l = [0.0] * n
    queue_acc = 0.0
    row_hits = 0
    mem_writes = 0

    for i, (line_i, is_wb, gs) in enumerate(zip(line_l, wb_l, gset_l)):
        # Probe: the index is a lazily-built memo.  For multi-copy
        # mappings a hit must point into this record's home set;
        # otherwise scan the home set's 16 tags once and memoise.
        pos = index_get(line_i)
        if pos is None or (multi_copy and pos // assoc != gs):
            base = gs * assoc
            try:
                pos = tags_f.index(line_i, base, base + assoc)
                index[line_i] = pos
            except ValueError:
                pos = None
        if is_wb:
            if pos is not None:
                dirty_f[pos] = True
                age_f[pos] = stamp0 + i
                hits[i] = 1
                continue
            fill_dirty = True
        else:
            if pos is not None:
                age_f[pos] = stamp0 + i
                lat_l[i] = hit_lat_l[i]
                hits[i] = 1
                continue
            ts = ts_l[i]
            arrival = ts + pen + to_mc_l[i]
            start = arrival if arrival > pipe_free else pipe_free
            queue_acc += start - arrival
            pipe_free = start + service
            row = line_i >> row_shift
            rbank = row & dram_mask
            if open_get(rbank) == row:
                mlat = rowhit_cycles
                row_hits += 1
            else:
                open_rows[rbank] = row
                mlat = miss_cycles
            lat_l[i] = (start + mlat - ts) + ret_l[i]
            fill_dirty = False
        # Fill (wb re-allocation or demand miss): free way, else LRU victim.
        oc = occ_l[gs]
        if oc < assoc:
            pos2 = gs * assoc + oc
            occ_l[gs] = oc + 1
        else:
            base = gs * assoc
            seg = age_f[base:base + assoc]
            pos2 = base + seg.index(min(seg))
            vline = tags_f[pos2]
            index_pop(vline, None)
            if dirty_f[pos2]:
                ts = ts_l[i]
                start = ts if ts > pipe_free else pipe_free
                queue_acc += start - ts
                pipe_free = start + service
                vrow = vline >> row_shift
                vbank = vrow & dram_mask
                if open_get(vbank) == vrow:
                    row_hits += 1
                else:
                    open_rows[vbank] = vrow
                mem_writes += 1
        tags_f[pos2] = line_i
        age_f[pos2] = stamp0 + i
        dirty_f[pos2] = fill_dirty
        index[line_i] = pos2

    state.clock = stamp0 + n
    # Per-fetch latencies accumulate in record order; write-back records
    # contribute an exact float no-op (x + 0.0 == x), so one in-order sum
    # reproduces the reference's running accumulation bit-for-bit.
    total_lat = sum(lat_l)
    # Batched accounting: everything the loop did not need in-order.
    hit_mask = np.frombuffer(bytes(hits), dtype=np.uint8).astype(bool)
    fetch_mask = ~wb_arr
    miss_mask = fetch_mask & ~hit_mask
    n_miss = int(miss_mask.sum())
    stats = llc.stats
    stats.fetches += int(fetch_mask.sum())
    stats.fetch_hits += int((fetch_mask & hit_mask).sum())
    stats.writebacks += int(wb_arr.sum())
    stats.writeback_hits += int((wb_arr & hit_mask).sum())
    stats.memory_reads += n_miss
    stats.memory_writes += mem_writes
    stats.total_fetch_latency += total_lat
    llc.wear.add_writes(
        np.bincount(bank[wb_arr | miss_mask], minlength=llc.wear.num_banks)
    )
    mesh.record_traffic(
        2 * n + n_miss,
        int(rt_hops[~miss_mask].sum()) + int(miss_hops[miss_mask].sum()),
    )
    _write_back_memory(llc.memory, n_miss + mem_writes, row_hits, queue_acc,
                       pipe_free, open_rows)
    return np.asarray(lat_l, dtype=np.float32)


def _replay_naive(llc, merged, state) -> np.ndarray:
    """Naive oracle: exact directory + min-write-bank placement.

    Placement feeds back through the live wear counters, so the whole
    record sequence is scalar; the win over the reference is the array
    bank engine, hoisted locals and table lookups instead of method
    chains.  The policy's real directory dict is mutated in place so its
    consistency invariants (and post-run inspection) are preserved.
    """
    policy = llc.policy
    mesh = llc.mesh
    config = llc.config
    bank0 = llc.banks[0]
    n = merged.total
    pen = float(policy.lookup_penalty)
    nb = policy.num_banks
    bmask = nb - 1

    hop = config.noc.hop_cycles
    dist_l = mesh.distance_matrix().tolist()
    mcs = mesh.memory_controllers
    nmc = len(mcs)
    read_lat = bank0.read_latency
    # Hit latency table: (penalty + round_trip) + read, per (core, bank).
    hitlat = [
        [(pen + 2 * dist_l[c][b] * hop) + read_lat for b in range(nb)]
        for c in range(len(dist_l))
    ]

    core_l = merged.core.tolist()
    line_l = merged.line.tolist()
    wb_l = merged.is_wb.tolist()
    ts_l = merged.ts.tolist()

    service, pipe_free, miss_cycles, rowhit_cycles, dram_mask, row_shift, open_rows = (
        _mem_params(llc.memory)
    )
    open_get = open_rows.get
    directory = policy._directory
    dir_get = directory.get
    index = state.index
    index_get = index.get
    tags_f = state.tags.reshape(-1).tolist()
    occ_l = state.occ.tolist()
    # Zero warm stamps; see _replay_static.
    age_f = [0] * len(tags_f)
    dirty_f = state.dirty.reshape(-1).tolist()
    num_sets = state.num_sets
    set_mask = num_sets - 1
    index_shift = state.index_shift
    assoc = state.assoc
    stamp0 = state.clock
    bw = llc.wear.bank_writes.tolist()
    lat_l = [0.0] * n
    queue_acc = 0.0
    row_hits = 0
    fetches = fetch_hits = wbs = wb_hits = mem_reads = mem_writes = 0
    messages = 0
    hops = 0

    for i, (core, line_i, is_wb) in enumerate(zip(core_l, line_l, wb_l)):
        bank = dir_get(line_i)
        if is_wb:
            wbs += 1
            if bank is not None:
                messages += 2
                hops += 2 * dist_l[core][bank]
                pos = index_get(line_i)
                if pos is None:
                    # Lazy index memo: scan the directory-recorded home
                    # set (Naive keeps a single-copy invariant, so a
                    # present entry never points at a stale set).
                    base = (
                        bank * num_sets + ((line_i >> index_shift) & set_mask)
                    ) * assoc
                    try:
                        pos = tags_f.index(line_i, base, base + assoc)
                    except ValueError:
                        raise SimulationError(
                            f"Naive directory says line {line_i:#x} is "
                            "resident but the bank array disagrees"
                        ) from None
                    index[line_i] = pos
                dirty_f[pos] = True
                age_f[pos] = stamp0 + i
                bw[bank] += 1
                wb_hits += 1
                continue
            place = bw.index(min(bw))
            fill_dirty = True
        else:
            fetches += 1
            ts = ts_l[i]
            if bank is not None:
                messages += 2
                hops += 2 * dist_l[core][bank]
                pos = index_get(line_i)
                if pos is None:
                    base = (
                        bank * num_sets + ((line_i >> index_shift) & set_mask)
                    ) * assoc
                    try:
                        pos = tags_f.index(line_i, base, base + assoc)
                    except ValueError:
                        raise SimulationError(
                            f"Naive directory says line {line_i:#x} is "
                            "resident but the bank array disagrees"
                        ) from None
                    index[line_i] = pos
                age_f[pos] = stamp0 + i
                lat_l[i] = hitlat[core][bank]
                fetch_hits += 1
                continue
            # Directory miss: learn of it at the line's directory slice,
            # forward to the memory controller, refill straight to core.
            dir_node = line_i & bmask
            mc = mcs[(line_i >> 4) % nmc]
            to_mc = dist_l[core][dir_node] * hop + dist_l[dir_node][mc] * hop
            messages += 3
            hops += dist_l[core][dir_node] + dist_l[dir_node][mc] + dist_l[mc][core]
            arrival = ts + pen + to_mc
            start = arrival if arrival > pipe_free else pipe_free
            queue_acc += start - arrival
            pipe_free = start + service
            row = line_i >> row_shift
            rbank = row & dram_mask
            if open_get(rbank) == row:
                mlat = rowhit_cycles
                row_hits += 1
            else:
                open_rows[rbank] = row
                mlat = miss_cycles
            mem_reads += 1
            lat_l[i] = (start + mlat - ts) + dist_l[mc][core] * hop
            place = bw.index(min(bw))
            fill_dirty = False
        gs = place * num_sets + ((line_i >> index_shift) & set_mask)
        oc = occ_l[gs]
        victim = None
        if oc < assoc:
            pos2 = gs * assoc + oc
            occ_l[gs] = oc + 1
        else:
            base = gs * assoc
            seg = age_f[base:base + assoc]
            pos2 = base + seg.index(min(seg))
            vline = tags_f[pos2]
            index.pop(vline, None)
            victim = (vline, dirty_f[pos2])
        bw[place] += 1
        tags_f[pos2] = line_i
        age_f[pos2] = stamp0 + i
        dirty_f[pos2] = fill_dirty
        index[line_i] = pos2
        directory[line_i] = place
        if victim is not None:
            vline, vdirty = victim
            recorded = directory.pop(vline, None)
            if recorded is None:
                raise SimulationError(f"Naive directory lost line {vline:#x}")
            if recorded != place:
                raise SimulationError(
                    f"Naive directory says line {vline:#x} is in bank "
                    f"{recorded}, evicted from {place}"
                )
            if vdirty:
                ts = ts_l[i]
                start = ts if ts > pipe_free else pipe_free
                queue_acc += start - ts
                pipe_free = start + service
                vrow = vline >> row_shift
                vbank = vrow & dram_mask
                if open_get(vbank) == vrow:
                    row_hits += 1
                else:
                    open_rows[vbank] = vrow
                mem_writes += 1

    state.clock = stamp0 + n
    stats = llc.stats
    stats.fetches += fetches
    stats.fetch_hits += fetch_hits
    stats.writebacks += wbs
    stats.writeback_hits += wb_hits
    stats.memory_reads += mem_reads
    stats.memory_writes += mem_writes
    stats.total_fetch_latency += sum(lat_l)
    wear = llc.wear
    wear.add_writes(np.asarray(bw, dtype=np.int64) - wear.bank_writes)
    mesh.record_traffic(messages, hops)
    _write_back_memory(llc.memory, mem_reads + mem_writes, row_hits, queue_acc,
                       pipe_free, open_rows)
    return np.asarray(lat_l, dtype=np.float32)


def _replay_renuca(llc, merged, state, cpts, threshold, block_cycles) -> np.ndarray:
    """Re-NUCA: scalar loop with in-order CPT feedback on the array engine.

    The live :class:`~repro.core.tlb.EnhancedTlb` and
    :class:`~repro.core.criticality.CriticalityPredictor` state — each
    TLB's per-set page dicts and MBV backing store, each predictor's PC
    table — is driven inline in exactly the reference sequence
    (mapping-bit reads, allocation-time bit sets, eviction-time bit
    clears, issue-time ratio reads, commit-time ground-truth updates), so
    it stays bit-identical while everything around it uses precomputed
    tables and flat arrays.  The rare paths (TLB refill, CPT insertion,
    victim bit clear) are small local helpers; lookup/hit counters are
    derived from per-core record counts and transferred at the end.
    """
    policy = llc.policy
    mesh = llc.mesh
    config = llc.config
    bank0 = llc.banks[0]
    n = merged.total

    hop = config.noc.hop_cycles
    dist_l = mesh.distance_matrix().tolist()
    mcs = mesh.memory_controllers
    nmc = len(mcs)
    read_lat = bank0.read_latency
    tag_lat = bank0.tag_latency
    n_nodes = len(dist_l)
    sn_mask = policy._snuca._mask
    rnuca = policy._rnuca
    clusters_l = [list(c) for c in rnuca.clusters]
    rids_l = list(rnuca.rids)
    cmask = rnuca._mask
    tlbs = policy.tlbs
    # EnhancedTlb internals: page -> [mbv] per set (LRU -> MRU), backing
    # store of non-resident pages' MBVs.  Every core's TLB shares one
    # geometry (the config's).
    tlb_sets = [tlb._array.set_views() for tlb in tlbs]
    backings = [tlb._backing for tlb in tlbs]
    page_shift = tlbs[0]._line_shift
    bit_mask = tlbs[0]._line_mask
    tlb_mask = tlbs[0]._set_mask
    tlb_assoc = tlbs[0]._array.assoc
    refills0 = [tlb.stats.refills for tlb in tlbs]
    # Write-back misses read the mapping bit twice (see below).
    wb_rereads = [0] * len(tlbs)
    cpt_tables = [cpt._table for cpt in cpts]
    cpt_cap = cpts[0].config.table_entries
    cpt_misses = [0] * len(cpts)
    # Every record reads its mapping bit once (write-back misses twice),
    # every fetched load its PC's CPT entry.  Counted before the record
    # lists below exist: bincount's intp copy of the stream stays off
    # the replay's memory peak.
    touches = np.bincount(merged.core, minlength=len(tlbs)).tolist()
    loads = np.bincount(
        merged.core[merged.is_load & ~merged.is_wb], minlength=len(cpts)
    ).tolist()

    def tlb_refill(core, ways, page):
        # EnhancedTlb._touch's miss path: restore the page's MBV from the
        # backing store, evicting the LRU page's MBV into it.
        stats = tlbs[core].stats
        backing = backings[core]
        stats.refills += 1
        restored = backing.pop(page, 0)
        if restored:
            stats.mbv_restores += 1
        if len(ways) >= tlb_assoc:
            vpage = next(iter(ways))
            vmbv = ways.pop(vpage)[0]
            stats.evictions += 1
            if vmbv:
                backing[vpage] = vmbv
                stats.mbv_writebacks += 1
        holder = [restored]
        ways[page] = holder
        return holder

    def clear_bit(owner, vline):
        # EnhancedTlb.clear_mapping_bit (no recency update).
        page = vline >> page_shift
        bit = 1 << (vline & bit_mask)
        entry = tlb_sets[owner][page & tlb_mask].get(page)
        if entry is not None:
            entry[0] &= ~bit
            return
        backing = backings[owner]
        mbv = backing.get(page)
        if mbv is not None:
            mbv &= ~bit
            if mbv:
                backing[page] = mbv
            else:
                del backing[page]

    def cpt_insert(core, pc, blocked):
        # CriticalityPredictor.observe_commit for an untracked PC.
        table = cpt_tables[core]
        stats = cpts[core].stats
        if len(table) >= cpt_cap:
            table.popitem(last=False)
            stats.evictions += 1
        table[pc] = [1, 1 if blocked else 0]
        stats.inserts += 1
    # (0.0 penalty + round_trip) + read, per (core, bank).
    hitlat = [
        [(0.0 + 2 * dist_l[c][b] * hop) + read_lat for b in range(n_nodes)]
        for c in range(n_nodes)
    ]

    core_l = merged.core.tolist()
    line_l = merged.line.tolist()
    wb_l = merged.is_wb.tolist()
    ts_l = merged.ts.tolist()
    load_l = merged.is_load.tolist()
    pc_l = merged.pc.tolist()
    stall_l = merged.stall.tolist()
    slack_l = merged.slack.tolist()
    mlp_l = merged.mlp.tolist()
    nominal_l = merged.nominal.tolist()

    service, pipe_free, miss_cycles, rowhit_cycles, dram_mask, row_shift, open_rows = (
        _mem_params(llc.memory)
    )
    open_get = open_rows.get
    index = state.index
    index_get = index.get
    tags_f = state.tags.reshape(-1).tolist()
    # Zero warm stamps (ties resolve to the warm LRU way); see
    # _replay_static.  Owner is read when a victim's mapping bit must be
    # cleared.  The predictor's criticality verdict is recorded in the
    # TLB mapping bits — nothing reads it per-frame.
    age_f = [0] * len(tags_f)
    dirty_f = state.dirty.reshape(-1).tolist()
    owner_f = state.owner.reshape(-1).tolist()
    occ_l = state.occ.tolist()
    num_sets = state.num_sets
    set_mask = num_sets - 1
    index_shift = state.index_shift
    assoc = state.assoc
    stamp0 = state.clock
    bw = [0] * llc.wear.num_banks
    lat_l = [0.0] * n
    queue_acc = 0.0
    row_hits = 0
    fetches = fetch_hits = wbs = wb_hits = mem_reads = mem_writes = 0
    crit_allocs = noncrit_allocs = 0
    messages = 0
    hops = 0

    for i, (core, line_i, is_wb) in enumerate(zip(core_l, line_l, wb_l)):
        # Mapping-bit read: a TLB touch of the line's page.
        page = line_i >> page_shift
        ways = tlb_sets[core][page & tlb_mask]
        mbv = ways.pop(page, None)
        if mbv is None:
            mbv = tlb_refill(core, ways, page)
        else:
            ways[page] = mbv
        if is_wb:
            wbs += 1
            if (mbv[0] >> (line_i & bit_mask)) & 1:
                bank = clusters_l[core][(line_i + rids_l[core] + 1) & cmask]
            else:
                bank = line_i & sn_mask
            messages += 2
            hops += 2 * dist_l[core][bank]
            gs = bank * num_sets + ((line_i >> index_shift) & set_mask)
            pos = index_get(line_i)
            if pos is None or pos // assoc != gs:
                # Lazy index memo; a hit must point into the *current*
                # home set (the mapping bit moves lines between the two
                # sub-policies, and stale copies can linger elsewhere).
                base = gs * assoc
                try:
                    pos = tags_f.index(line_i, base, base + assoc)
                    index[line_i] = pos
                except ValueError:
                    pos = None
            if pos is not None:
                dirty_f[pos] = True
                age_f[pos] = stamp0 + i
                bw[bank] += 1
                wb_hits += 1
                continue
            # Reference probes _is_static -> writeback_bank -> locate,
            # which reads the mapping bit a second time: a TLB hit on
            # the page just made MRU, so only its lookup is counted.
            wb_rereads[core] += 1
            place = bank
            critical = False
            fill_dirty = True
        else:
            fetches += 1
            ts = ts_l[i]
            is_load = load_l[i]
            if is_load:
                # CriticalityPredictor.ratio: issue-time read + num_loads.
                pc = pc_l[i]
                table = cpt_tables[core]
                centry = table.get(pc)
                if centry is None:
                    cpt_misses[core] += 1
                    predicted = False
                else:
                    table.move_to_end(pc)
                    issued = centry[0]
                    ratio = centry[1] / issued if issued else 0.0
                    centry[0] = issued + 1
                    predicted = ratio >= threshold
            else:
                predicted = False
            if (mbv[0] >> (line_i & bit_mask)) & 1:
                bank = clusters_l[core][(line_i + rids_l[core] + 1) & cmask]
            else:
                bank = line_i & sn_mask
            gs = bank * num_sets + ((line_i >> index_shift) & set_mask)
            pos = index_get(line_i)
            if pos is None or pos // assoc != gs:
                base = gs * assoc
                try:
                    pos = tags_f.index(line_i, base, base + assoc)
                    index[line_i] = pos
                except ValueError:
                    pos = None
            if pos is not None:
                age_f[pos] = stamp0 + i
                messages += 2
                hops += 2 * dist_l[core][bank]
                lat = hitlat[core][bank]
                lat_l[i] = lat
                fetch_hits += 1
                fill_needed = False
            else:
                d_cb = dist_l[core][bank]
                mc = mcs[(line_i >> 4) % nmc]
                d_bmc = dist_l[bank][mc]
                d_mcc = dist_l[mc][core]
                to_mc = d_cb * hop + tag_lat + d_bmc * hop
                messages += 3
                hops += d_cb + d_bmc + d_mcc
                arrival = ts + 0.0 + to_mc
                start = arrival if arrival > pipe_free else pipe_free
                queue_acc += start - arrival
                pipe_free = start + service
                row = line_i >> row_shift
                rbank = row & dram_mask
                if open_get(rbank) == row:
                    mlat = rowhit_cycles
                    row_hits += 1
                else:
                    open_rows[rbank] = row
                    mlat = miss_cycles
                mem_reads += 1
                lat = (start + mlat - ts) + d_mcc * hop
                lat_l[i] = lat
                if predicted:
                    place = clusters_l[core][(line_i + rids_l[core] + 1) & cmask]
                else:
                    place = line_i & sn_mask
                critical = predicted
                fill_needed = True
            if fill_needed:
                gs_p = place * num_sets + ((line_i >> index_shift) & set_mask)
                oc = occ_l[gs_p]
                victim = None
                if oc < assoc:
                    pos2 = gs_p * assoc + oc
                    occ_l[gs_p] = oc + 1
                else:
                    base = gs_p * assoc
                    seg = age_f[base:base + assoc]
                    pos2 = base + seg.index(min(seg))
                    vline = tags_f[pos2]
                    index.pop(vline, None)
                    victim = (vline, dirty_f[pos2], owner_f[pos2])
                bw[place] += 1
                tags_f[pos2] = line_i
                age_f[pos2] = stamp0 + i
                dirty_f[pos2] = False
                owner_f[pos2] = core
                index[line_i] = pos2
                # Allocation-time set_mapping_bit (the page is MRU).
                if critical:
                    mbv[0] |= 1 << (line_i & bit_mask)
                    crit_allocs += 1
                else:
                    mbv[0] &= ~(1 << (line_i & bit_mask))
                    noncrit_allocs += 1
                if victim is not None:
                    vline, vdirty, vowner = victim
                    clear_bit(vowner, vline)
                    if vdirty:
                        start = ts if ts > pipe_free else pipe_free
                        queue_acc += start - ts
                        pipe_free = start + service
                        vrow = vline >> row_shift
                        vbank = vrow & dram_mask
                        if open_get(vbank) == vrow:
                            row_hits += 1
                        else:
                            open_rows[vbank] = vrow
                        mem_writes += 1
            if is_load:
                # Commit-time ground truth under this scheme's latency
                # (observe_commit; the issue-time entry is still live).
                diff = lat - nominal_l[i]
                stall = stall_l[i]
                if stall > 0:
                    stall2 = stall + diff / mlp_l[i]
                else:
                    stall2 = (diff - slack_l[i]) / mlp_l[i]
                if centry is None:
                    cpt_insert(core, pc, stall2 >= block_cycles)
                elif stall2 >= block_cycles:
                    centry[1] += 1
            continue
        # Write-back re-allocation fill (shared with the fetch-miss fill
        # would cost a branch in the hotter fetch path; duplicated here).
        gs_p = place * num_sets + ((line_i >> index_shift) & set_mask)
        oc = occ_l[gs_p]
        victim = None
        if oc < assoc:
            pos2 = gs_p * assoc + oc
            occ_l[gs_p] = oc + 1
        else:
            base = gs_p * assoc
            seg = age_f[base:base + assoc]
            pos2 = base + seg.index(min(seg))
            vline = tags_f[pos2]
            index.pop(vline, None)
            victim = (vline, dirty_f[pos2], owner_f[pos2])
        bw[place] += 1
        tags_f[pos2] = line_i
        age_f[pos2] = stamp0 + i
        dirty_f[pos2] = fill_dirty
        owner_f[pos2] = core
        index[line_i] = pos2
        mbv[0] &= ~(1 << (line_i & bit_mask))
        noncrit_allocs += 1
        if victim is not None:
            vline, vdirty, vowner = victim
            clear_bit(vowner, vline)
            if vdirty:
                ts = ts_l[i]
                start = ts if ts > pipe_free else pipe_free
                queue_acc += start - ts
                pipe_free = start + service
                vrow = vline >> row_shift
                vbank = vrow & dram_mask
                if open_get(vbank) == vrow:
                    row_hits += 1
                else:
                    open_rows[vbank] = vrow
                mem_writes += 1

    state.clock = stamp0 + n
    # Every TLB lookup that did not refill hit.
    for core, tlb in enumerate(tlbs):
        lookups = touches[core] + wb_rereads[core]
        tlb.stats.lookups += lookups
        tlb.stats.hits += lookups - (tlb.stats.refills - refills0[core])
    for core, cpt in enumerate(cpts):
        cpt.stats.lookups += loads[core]
        cpt.stats.lookup_hits += loads[core] - cpt_misses[core]
    stats = llc.stats
    stats.fetches += fetches
    stats.fetch_hits += fetch_hits
    stats.writebacks += wbs
    stats.writeback_hits += wb_hits
    stats.memory_reads += mem_reads
    stats.memory_writes += mem_writes
    stats.total_fetch_latency += sum(lat_l)
    llc.wear.add_writes(np.asarray(bw, dtype=np.int64))
    policy.critical_allocations += crit_allocs
    policy.noncritical_allocations += noncrit_allocs
    mesh.record_traffic(messages, hops)
    _write_back_memory(llc.memory, mem_reads + mem_writes, row_hits, queue_acc,
                       pipe_free, open_rows)
    return np.asarray(lat_l, dtype=np.float32)


def _write_back_memory(memory, requests, row_hits, queue_cycles, pipe_free, open_rows):
    """Transfer the inlined memory replay's state back into the model."""
    memory.stats.requests += requests
    memory.stats.row_hits += row_hits
    memory.stats.total_queue_cycles += queue_cycles
    memory._pipe_free = pipe_free
    memory._open_rows = open_rows
