"""Vectorized stage-2 replay kernel (the un-instrumented fast path).

The stage-2 hot loop replays millions of merged LLC references; the
reference implementation walks the full object graph per record
(:meth:`~repro.nuca.llc.NucaLLC.fetch` -> policy -> per-set dict
:class:`~repro.cache.cache.Cache` -> :class:`~repro.noc.mesh.Mesh` ->
:class:`~repro.reram.wear.WearTracker`).  This module replays the same
stream against **array-backed bank state** (:class:`ArrayBanks`: numpy
``(sets x ways)`` tag/dirty/owner/critical matrices plus a line->frame
index dict) and batches all side-channel accounting:

* criticality-blind policies (S-NUCA, R-NUCA, Private) get their bank
  vector, NoC latencies (through the mesh's precomputed distance matrix)
  and per-record hit latencies computed vectorized per chunk; the scalar
  loop only runs the sequential parts (LRU state, the in-order memory
  pipe), and wear / hop / message totals are reduced with
  ``np.bincount``-style operations after each chunk;
* Naive keeps its exact directory + min-write-bank oracle (placement
  feeds back through wear, so it stays scalar) on the array engine;
* Re-NUCA keeps its in-order CPT feedback loop, on flat per-line state:
  dense line ids carry the Mapping Bit and the probe memo, and the CPT
  is a pair of counters per (core, pc).  The Mapping Bit is kept per
  line, not in enhanced-TLB objects: no scheme charges latency for a
  TLB miss, so no result depends on TLB residency, and the kernel path
  keeps no TLB state at all (:attr:`~repro.core.renuca.ReNucaPolicy.tlbs`
  raises once the kernel has warmed the LLC).

Every replay reads the runner's merged stream, which gathers its
records window by window from the cores' stage-1 streams, one chunk of
``_CHUNK`` records at a time, and returns the latencies of the measured
(first-copy) records only.

The scalar loops read the bank state through flat ``array``/``bytearray``
views (:func:`_frame_views`), which cost a fraction of the memory of
Python lists: the state's own tag, dirty and occupancy buffers, which
the replay consumes, and 4-byte recency stamps.

The warm state the kernel replays from is built directly as arrays by
:func:`warm_state` (the closed form of the reference warm-up), so the
kernel path never fills the per-bank ``Cache`` objects at all.

Equivalence contract: for every supported configuration the kernel
produces **field-for-field identical** :class:`~repro.sim.metrics.\
WorkloadSchemeResult`s to the reference path (including float fields —
all floating-point accumulation replicates the reference's operation
order, in record order — never builtin ``sum()``, whose float summation
is compensated since Python 3.12).  The kernel transfers *statistics*
back into the live objects (LLC stats, mesh traffic, wear counters,
memory pipe/row state, policy counters, and Re-NUCA's CPT state); the
per-bank ``Cache`` objects stay empty — nothing on the un-instrumented
path reads them.  Re-NUCA's enhanced TLBs exist only on the reference
path.

The kernel never engages when telemetry or fault injection is attached
(those need the object graph's event hooks); :func:`kernel_fallback_reason`
is the single gate.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict

import numpy as np

from repro.common.errors import SimulationError
from repro.nuca.naive import NaivePolicy
from repro.nuca.private import PrivatePolicy
from repro.nuca.rnuca import RNucaPolicy
from repro.nuca.snuca import SNucaPolicy


class ArrayBanks:
    """All L3 banks' tag state as flat numpy matrices.

    Sets of every bank are stacked into one global set space
    (``global_set = bank * num_sets + set``); each row holds one set's
    ``assoc`` ways.  No recency is stored: warm-up fills each set's ways
    in LRU -> MRU order, and each replay keeps its own 4-byte stamps
    (see :func:`_frame_views`).  ``clock`` counts the warm installs and
    the records replayed since.

    ``tags``, ``dirty`` and ``occ`` are numpy views of private flat
    ``array('q')``/``bytearray`` buffers, which the scalar replay loops
    index directly instead of copies (see :func:`_frame_views`).

    ``index`` maps resident line addresses to flat frame positions
    (``global_set * assoc + way``) for O(1) probes from scalar loops.
    It starts empty and is only a memo: an index miss falls back to a
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
        self._tag_frames = array("q", [-1]) * (total_sets * assoc)
        self._dirty_frames = bytearray(total_sets * assoc)
        self._occ_sets = array("q", [0]) * total_sets
        self.tags = np.frombuffer(self._tag_frames, dtype=np.int64).reshape(
            total_sets, assoc
        )
        self.dirty = np.frombuffer(self._dirty_frames, dtype=bool).reshape(
            total_sets, assoc
        )
        self.occ = np.frombuffer(self._occ_sets, dtype=np.int64)
        self.owner = np.zeros((total_sets, assoc), dtype=np.int16)
        self.critical = np.zeros((total_sets, assoc), dtype=bool)
        self.index: dict[int, int] = {}
        self.clock = 0

    @classmethod
    def for_llc(cls, llc) -> "ArrayBanks":
        """Empty arrays with an LLC's bank geometry."""
        cache0 = llc.banks[0].cache
        return cls(
            len(llc.banks), cache0.num_sets, cache0.config.assoc, cache0.index_shift
        )


#: Why a run took the reference replay, one name per refusal of
#: :func:`kernel_fallback_reason` plus ``env`` (``REPRO_KERNEL=0``) and
#: ``pinned`` (``use_kernel=False``), which the runner decides.
FALLBACK_REASONS = ("telemetry", "faults", "policy", "cache-mode", "env", "pinned")

#: Records per chunk of every replay: bounds the columns and Python
#: lists the scalar loops read, whatever the stream length.
_CHUNK = 1 << 13


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


def _fill_banks(policy, start: int, cores, lines, critical) -> np.ndarray:
    """Warm-up fill bank of each install of one run of the warm stream.

    ``start`` is the run's position in the whole stream: Naive's
    min-write placement from zero wear is round-robin over the banks in
    stream order.
    """
    ptype = type(policy)
    if ptype is NaivePolicy:
        return np.arange(start, start + len(lines)) % policy.num_banks
    if ptype in (SNucaPolicy, PrivatePolicy, RNucaPolicy):
        return _static_banks(policy, cores, lines)
    # Re-NUCA: critical fills near the core, the rest spread.
    return np.where(
        critical,
        _static_banks(policy._rnuca, cores, lines),
        _static_banks(policy._snuca, cores, lines),
    )


def warm_state(llc, runs) -> ArrayBanks:
    """The warmed LLC as arrays: the kernel path's closed-form warm-up.

    ``runs()`` yields the warm stream in install order (what the
    reference warm-up feeds ``NucaLLC.prefill_many``) as runs ``(core,
    lines, critical)`` of one core each (``critical`` None: all False).
    It is called once per pass and must yield the same runs each time:
    the stream is never concatenated.
    The stream must be duplicate-free, so every line misses and is
    filled, and each placement is a pure function of (core, line,
    critical) — Naive's min-write placement starting from zero wear is
    round-robin over the banks, ties going to the lowest.  Under LRU
    with no hits each set then ends holding the last ``assoc`` lines
    inserted into it, in insertion order; warm-up wear is a bincount of
    the fill banks (added to ``llc.wear``, for the caller to reset).
    Naive's directory is installed for the survivors.  Re-NUCA's
    starting Mapping Bits are the survivors' critical flags, which the
    replay reads from the frames; the policy's enhanced TLBs are
    dropped, not filled (:attr:`~repro.core.renuca.ReNucaPolicy.tlbs`
    raises until a reset).  Dirty flags stay all-false.

    The first pass counts each set's installs and the warm-up wear,
    checks each run for a repeated line and notes its line range; runs
    whose ranges overlap are then checked together.  The second pass
    places every install by its rank among its set's installs: the last
    ``assoc`` survive, scattered straight into the state's frames.  So
    the transient memory is one run plus a few per-set vectors.
    """
    state = ArrayBanks.for_llc(llc)
    policy = llc.policy
    total_sets = len(state.occ)
    counts = np.zeros(total_sets, dtype=np.int64)
    wear = np.zeros(llc.wear.num_banks, dtype=np.int64)
    spans = []
    for i, (_, lines, _, bank, gset) in enumerate(_placed_runs(runs(), state, policy)):
        if len(lines):
            ordered = np.sort(lines)
            _check_distinct(ordered)
            spans.append((int(ordered[0]), int(ordered[-1]), i))
        np.add.at(counts, gset, 1)
        np.add.at(wear, bank, 1)
    _check_overlapping_runs(runs, spans)

    assoc = state.assoc
    # Per set: installs evicted before the warm-up ends, installs so far.
    dropped = np.maximum(counts - assoc, 0)
    seen = np.zeros(total_sets, dtype=np.int64)
    tags = state.tags.reshape(-1)
    owner = state.owner.reshape(-1)
    crit = state.critical.reshape(-1)
    # The narrowest set key: small integer keys sort stably in linear time.
    key = np.min_scalar_type(total_sets - 1)
    for core, lines, critical, _, gset in _placed_runs(runs(), state, policy):
        order = np.argsort(gset.astype(key), kind="stable")
        sets = gset[order]
        way = seen[sets] - dropped[sets] + (np.arange(len(sets)) - _group_starts(sets))
        keep = way >= 0
        at = order[keep]
        pos = sets[keep] * assoc + way[keep]
        tags[pos] = lines[at]
        owner[pos] = core
        crit[pos] = critical[at]
        np.add.at(seen, gset, 1)
    state.occ[:] = np.minimum(counts, assoc)
    state.clock = int(state.occ.sum())
    llc.wear.add_writes(wear)
    ptype = type(policy)
    if ptype is NaivePolicy:
        # Occupied frames in frame order: set-major, LRU -> MRU in a set.
        held = np.flatnonzero(tags >= 0)
        policy._directory.update(
            zip(tags[held].tolist(), (held // (state.num_sets * assoc)).tolist())
        )
    elif ptype not in (SNucaPolicy, PrivatePolicy, RNucaPolicy):
        # Re-NUCA: the replay keeps the Mapping Bits per line, in no TLB.
        policy._tlbs = None
    return state


def _placed_runs(runs, state: ArrayBanks, policy):
    """Each warm run with its fill banks and their global sets.

    Yields ``(core, lines, critical, bank, gset)``; Naive's round-robin
    counts from the run's position in the whole stream.
    """
    start = 0
    for core, lines, critical in runs:
        lines = np.asarray(lines, dtype=np.int64)
        n = len(lines)
        critical = (
            np.zeros(n, dtype=bool) if critical is None
            else np.asarray(critical, dtype=bool)
        )
        bank = _fill_banks(
            policy, start, np.full(n, core, dtype=np.int16), lines, critical
        )
        start += n
        gset = bank * state.num_sets + (
            (lines >> state.index_shift) & (state.num_sets - 1)
        )
        yield core, lines, critical, bank, gset


def _check_distinct(ordered: np.ndarray) -> None:
    """Refuse a warm stream whose sorted lines repeat one."""
    if (ordered[1:] == ordered[:-1]).any():
        raise SimulationError(
            "warm stream repeats a line; the array warm-up needs a miss-only stream"
        )


def _check_overlapping_runs(runs, spans) -> None:
    """Check runs whose line ranges overlap for a line they share.

    ``spans`` holds each non-empty run's ``(lowest, highest, index)``.
    Runs whose ranges chain into one overlapping group are generated
    again and sorted together; disjoint runs cannot share a line (the
    runner's runs never overlap: each core has its own address space).
    """
    groups: list[list[int]] = []
    reach = None
    for lo, hi, i in sorted(spans):
        if reach is None or lo > reach:
            groups.append([])
            reach = hi
        reach = max(reach, hi)
        groups[-1].append(i)
    shared = {i: g for g, runs_in in enumerate(groups) if len(runs_in) > 1 for i in runs_in}
    if not shared:
        return
    parts: dict[int, list] = {}
    for i, (_, lines, _) in enumerate(runs()):
        if i in shared:
            parts.setdefault(shared[i], []).append(np.asarray(lines, dtype=np.int64))
    for group in parts.values():
        _check_distinct(np.sort(np.concatenate(group)))


def replay(
    llc, merged, *, state: ArrayBanks, cpts=None, threshold=0.0, block_cycles=0.0,
) -> np.ndarray:
    """Replay a merged stream through the kernel; returns measured latencies.

    Drop-in replacement for the reference measured loop: ``state`` is
    the warm state from :func:`warm_state` (consumed: the replay mutates
    it), ``llc`` the measurement-reset controller whose statistics and
    policy metadata the replay updates, ``merged`` the runner's
    ``_MergedStream``, read one chunk of ``_CHUNK`` records at a time.
    ``cpts``/``threshold``/``block_cycles`` feed the Re-NUCA criticality
    loop and are ignored by the blind policies.  The result holds the
    latency of each measured (first-copy) record, first copies
    concatenated core by core (``merged.measured_slices``).
    """
    policy = llc.policy
    ptype = type(policy)
    if ptype in (SNucaPolicy, PrivatePolicy, RNucaPolicy):
        return _replay_static(llc, merged, state)
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


def _replay_static(llc, merged, state) -> np.ndarray:
    """S-NUCA / R-NUCA / Private: pure-function mapping, no criticality.

    Everything derivable from (core, line) alone is vectorized per
    chunk; the scalar loop carries only the genuinely sequential state —
    LRU recency, set occupancy and the in-order memory pipe.  R-NUCA's
    and Private's mappings depend on the requesting core, so one line
    can be resident in several banks and a probe hint must be checked
    against the record's home set; S-NUCA's bank is a pure function of
    the line address, so its hints skip that guard.
    """
    policy = llc.policy
    mesh = llc.mesh
    config = llc.config
    bank0 = llc.banks[0]
    pen = float(policy.lookup_penalty)
    multi_copy = type(policy) is not SNucaPolicy

    dist = mesh.distance_matrix()
    hop = config.noc.hop_cycles
    mcs = np.asarray(mesh.memory_controllers, dtype=np.int64)

    service, pipe_free, miss_cycles, rowhit_cycles, dram_mask, row_shift, open_rows = (
        _mem_params(llc.memory)
    )
    open_get = open_rows.get
    index = state.index
    index_get = index.get
    index_pop = index.pop
    # Flat views of the array state: per-record loads/stores on them
    # cost a fraction of numpy scalar indexing, and nothing here needs
    # elementwise numpy until the batched reductions below.
    tags_f, age_f, dirty_f, occ_l = _frame_views(state, merged.total)
    assoc = state.assoc
    out = np.empty(merged.measured, dtype=np.float32)
    total_lat = llc.stats.total_fetch_latency
    queue_acc = 0.0
    row_hits = 0
    mem_writes = 0
    fetches = fetch_hits = wbs = wb_hits = n_miss = messages = hops = 0
    wear = np.zeros(llc.wear.num_banks, dtype=np.int64)

    for rec in merged.chunks(("core", "line", "is_wb")):
        core = rec.core.astype(np.int64)
        line = rec.line
        bank = _static_banks(policy, core, line)
        mc = mcs[(line >> 4) % len(mcs)]
        d_cb = dist[core, bank].astype(np.int64)
        d_bmc = dist[bank, mc].astype(np.int64)
        d_mcc = dist[mc, core].astype(np.int64)
        # Reference op order: (penalty + round_trip) + read_latency, and
        # (now + penalty) + (send + tag + send) — kept bit-exact in float64.
        hit_lat = (pen + 2 * d_cb * hop) + bank0.read_latency
        to_mc = d_cb * hop + bank0.tag_latency + d_bmc * hop
        gset = bank * state.num_sets + ((line >> state.index_shift) & (state.num_sets - 1))
        wb_arr = rec.is_wb

        # Only the columns the scalar loop reads become Python lists.
        line_l = line.tolist()
        gset_l = gset.tolist()
        wb_l = wb_arr.tolist()
        ts_l = rec.ts.tolist()
        hit_lat_l = hit_lat.tolist()
        to_mc_l = to_mc.tolist()
        ret_l = (d_mcc * hop).tolist()
        m = len(line_l)
        stamp = 1 + rec.lo
        hits = bytearray(m)
        lat_l = [0.0] * m

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
                    age_f[pos] = stamp + i
                    hits[i] = 1
                    continue
                fill_dirty = True
            else:
                if pos is not None:
                    age_f[pos] = stamp + i
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
            age_f[pos2] = stamp + i
            dirty_f[pos2] = fill_dirty
            index[line_i] = pos2

        # Batched accounting of the chunk: everything the loop did not
        # need in order.
        hit_mask = np.frombuffer(hits, dtype=bool)
        fetch_mask = ~wb_arr
        miss_mask = fetch_mask & ~hit_mask
        chunk_misses = int(miss_mask.sum())
        n_miss += chunk_misses
        fetches += int(fetch_mask.sum())
        fetch_hits += int((fetch_mask & hit_mask).sum())
        wbs += int(wb_arr.sum())
        wb_hits += int((wb_arr & hit_mask).sum())
        # Write-back records add an exact float no-op (x + 0.0 == x).
        total_lat = _ordered_sum(total_lat, lat_l)
        wear += np.bincount(bank[wb_arr | miss_mask], minlength=len(wear))
        messages += 2 * m + chunk_misses
        hops += int(2 * d_cb[~miss_mask].sum()) + int(
            (d_cb + d_bmc + d_mcc)[miss_mask].sum()
        )
        rec.scatter_measured(out, lat_l)

    state.clock += merged.total
    stats = llc.stats
    stats.fetches += fetches
    stats.fetch_hits += fetch_hits
    stats.writebacks += wbs
    stats.writeback_hits += wb_hits
    stats.memory_reads += n_miss
    stats.memory_writes += mem_writes
    stats.total_fetch_latency = total_lat
    llc.wear.add_writes(wear)
    mesh.record_traffic(messages, hops)
    _write_back_memory(llc.memory, n_miss + mem_writes, row_hits, queue_acc,
                       pipe_free, open_rows)
    return out


def _replay_naive(llc, merged, state) -> np.ndarray:
    """Naive oracle: exact directory + min-write-bank placement.

    Placement feeds back through the live wear counters, so the whole
    record sequence is scalar; the win over the reference is the array
    bank engine, hoisted locals and table lookups instead of method
    chains.  The policy's real directory dict is mutated in place so its
    consistency invariants (and post-run inspection) are preserved.
    Records stream through in chunks; only the chunk at hand becomes
    Python lists.
    """
    policy = llc.policy
    mesh = llc.mesh
    config = llc.config
    bank0 = llc.banks[0]
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

    service, pipe_free, miss_cycles, rowhit_cycles, dram_mask, row_shift, open_rows = (
        _mem_params(llc.memory)
    )
    open_get = open_rows.get
    directory = policy._directory
    dir_get = directory.get
    index = state.index
    index_get = index.get
    tags_f, age_f, dirty_f, occ_l = _frame_views(state, merged.total)
    num_sets = state.num_sets
    set_mask = num_sets - 1
    index_shift = state.index_shift
    assoc = state.assoc
    bw = llc.wear.bank_writes.tolist()
    out = np.empty(merged.measured, dtype=np.float32)
    total_lat = llc.stats.total_fetch_latency
    queue_acc = 0.0
    row_hits = 0
    fetches = fetch_hits = wbs = wb_hits = mem_reads = mem_writes = 0
    messages = 0
    hops = 0

    for rec in merged.chunks(("core", "line", "is_wb")):
        core_l = rec.core.tolist()
        line_l = rec.line.tolist()
        wb_l = rec.is_wb.tolist()
        ts_l = rec.ts.tolist()
        stamp = 1 + rec.lo
        lat_l = [0.0] * len(ts_l)
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
                    age_f[pos] = stamp + i
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
                    age_f[pos] = stamp + i
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
            age_f[pos2] = stamp + i
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
        total_lat = _ordered_sum(total_lat, lat_l)
        rec.scatter_measured(out, lat_l)

    state.clock += merged.total
    stats = llc.stats
    stats.fetches += fetches
    stats.fetch_hits += fetch_hits
    stats.writebacks += wbs
    stats.writeback_hits += wb_hits
    stats.memory_reads += mem_reads
    stats.memory_writes += mem_writes
    stats.total_fetch_latency = total_lat
    wear = llc.wear
    wear.add_writes(np.asarray(bw, dtype=np.int64) - wear.bank_writes)
    mesh.record_traffic(messages, hops)
    _write_back_memory(llc.memory, mem_reads + mem_writes, row_hits, queue_acc,
                       pipe_free, open_rows)
    return out


#: The merged-stream columns the Re-NUCA replay reads.
_RENUCA_COLUMNS = ("core", "line", "is_wb", "is_load", "stall", "slack", "mlp", "nominal")


def _replay_renuca(llc, merged, state, cpts, threshold, block_cycles) -> np.ndarray:
    """Re-NUCA: in-order probe/fill/CPT loop on flat per-line state.

    The loop carries only what is genuinely sequential: LRU stamps and
    set occupancy, the memory pipe, fills and victims, and the
    predictor's issue/commit feedback.  Everything else moves out:

    * **Per-line state.**  Every line the stream references gets a
      dense id from one ``np.unique`` over the cores' first copies, and
      per-id flat arrays hold its candidate sets, its Mapping Bit, its
      probe memo (``ArrayBanks.index`` semantics) and the number of
      frames holding it, so a probe scans a set only when a copy the
      memo does not point to exists.  Frames
      hold ids (``~line`` for warm lines the stream never references).
      The Mapping Bit of a line is a per-line fact — the enhanced TLB
      only *caches* it, and its backing store keeps every non-zero MBV
      across TLB evictions — so the loop reads and writes it directly.
    * **No TLB.**  A TLB miss costs no latency on any path, so TLB
      residency feeds no result, and the kernel keeps none: a line's
      starting Mapping Bit is the critical flag of the warm frame
      holding it (see :class:`_LineIds`).
    * **CPT counters.**  Each predictor entry is a pair of per-(core,
      pc) counters; whether a load would block on a hit is precomputed
      for both candidate banks.  When a table could overflow, the
      predictors' LRU order is kept in ``OrderedDict``s beside them.
    * **Batched accounting.**  The loop writes one code byte per record
      (probe mapping, hit, critical placement); wear, hops, messages,
      counters and hit latencies are reduced from it with numpy.

    Records stream through in chunks of ``_CHUNK``, gathered window by
    window from the cores' streams, so the columns and Python lists the
    loop reads stay bounded whatever the replay length.
    """
    policy = llc.policy
    mesh = llc.mesh
    config = llc.config
    bank0 = llc.banks[0]
    nb = llc.wear.num_banks
    pen = float(policy.lookup_penalty)
    hop = config.noc.hop_cycles
    dist = mesh.distance_matrix().astype(np.int64)
    nodes = len(dist)
    mcs = np.asarray(mesh.memory_controllers, dtype=np.int64)
    nmc = len(mcs)
    # Flat NoC tables per (core, bank), per (core, bank, controller) and
    # per (core, controller), in the reference's operation order:
    # (penalty + round trip) + read; (send + tag) + send; the refill.
    rt_hops = (2 * dist).ravel()
    hitlat = ((pen + 2 * dist * hop) + bank0.read_latency).ravel()
    d_bmc = dist[:, mcs]
    d_mcc = dist[mcs, :].T
    to_mc = (
        (dist * hop + bank0.tag_latency)[:, :, None] + (d_bmc * hop)[None, :, :]
    ).ravel()
    miss_hops = (dist[:, :, None] + d_bmc[None, :, :] + d_mcc[:, None, :]).ravel()
    ret = (d_mcc * hop).ravel()
    num_sets = state.num_sets
    assoc = state.assoc

    lines = _LineIds(state, merged, policy)
    cpt = _CptCounters(cpts, merged)
    tags_f, age_f, dirty_f, occ = _frame_views(state, merged.total)
    mbit = lines.mbit
    memo = lines.memo
    copies = lines.copies
    line_of = lines.line_of
    iss, blk, cpt_commit = cpt.issued, cpt.blocked, cpt.commit

    service, pipe_free, miss_cycles, rowhit_cycles, dram_mask, row_shift, open_rows = (
        _mem_params(llc.memory)
    )
    open_get = open_rows.get
    out = np.empty(merged.measured, dtype=np.float32)
    total_lat = llc.stats.total_fetch_latency
    queue_acc = 0.0
    row_hits = mem_writes = 0
    bw = np.zeros(nb, dtype=np.int64)
    fetches = mem_reads = wbs = wb_miss_total = crit_allocs = 0
    messages = hops = 0

    for rec in merged.chunks(_RENUCA_COLUMNS):
        lo = rec.lo
        m = len(rec.src)
        core = rec.core.astype(np.int64)
        line = rec.line
        wb = rec.is_wb
        load = rec.is_load & ~wb
        rid = lines.ids[rec.src]
        b_r = lines.bank_r[rid]
        b_s = lines.bank_s[rid]
        cb_r = core * nodes + b_r
        cb_s = core * nodes + b_s
        mci = (line >> 4) % nmc
        # Record kind: bit 0 load, bit 1 write-back, bits 2/3 "this load
        # blocks the ROB head if it hits in its R-NUCA/S-NUCA bank".
        kind = load.astype(np.int64) | (wb.astype(np.int64) << 1)
        ld = np.flatnonzero(load)
        cptk = cpt.record_keys[rec.src]
        cpt.count_loads(lo + ld, cptk[ld])
        nominal = rec.nominal.astype(np.float64)
        stall = rec.stall.astype(np.float64)
        slack = rec.slack.astype(np.float64)
        mlp = rec.mlp.astype(np.float64)
        for cb, flag in ((cb_r, 4), (cb_s, 8)):
            diff = hitlat.take(cb[ld]) - nominal[ld]
            stall2 = np.where(
                stall[ld] > 0, stall[ld] + diff / mlp[ld], (diff - slack[ld]) / mlp[ld]
            )
            kind[ld] |= np.where(stall2 >= block_cycles, flag, 0)

        # The columns every record reads become Python lists; the ones
        # only loads and misses read stay flat arrays.
        lid_l = rid.tolist()
        kind_l = kind.tolist()
        # Frame base of the record's R-NUCA and S-NUCA candidate sets.
        br_l = (lines.set_r[rid] * assoc).tolist()
        bs_l = (lines.set_s[rid] * assoc).tolist()
        ts_a = _flat(rec.ts)
        tomcr_a = _flat(to_mc.take(cb_r * nmc + mci))
        tomcs_a = _flat(to_mc.take(cb_s * nmc + mci))
        ret_a = _flat(ret.take(core * nmc + mci))
        row_a = _flat(line >> row_shift)
        cptk_a = _flat(cptk)
        nominal_a = _flat(nominal)
        stall_a = _flat(stall)
        slack_a = _flat(slack)
        mlp_a = _flat(rec.mlp)
        codes = bytearray(m)
        miss_lat = array("d", bytes(8 * m))
        stamp = 1 + lo

        for j, lid, kd, br, bs in zip(range(m), lid_l, kind_l, br_l, bs_l):
            # Mapping Bit -> probe set; code bit 0 records the choice.
            if mbit[lid]:
                base = br
                code = 1
            else:
                base = bs
                code = 0
            pos = memo[lid]
            if not base <= pos < base + assoc:
                # The memo knows one copy, elsewhere or none.  Scan the
                # set only when a copy it does not know exists.
                if copies[lid] > (pos >= 0):
                    try:
                        pos = tags_f.index(lid, base, base + assoc)
                        memo[lid] = pos
                    except ValueError:
                        pos = -1
                else:
                    pos = -1
            if pos >= 0:
                age_f[pos] = stamp + j
                if kd & 2:
                    dirty_f[pos] = 1
                elif kd & 1:
                    k = cptk_a[j]
                    if cpt_commit is None:
                        iss[k] += 1
                        if kd & (8 >> code):
                            blk[k] += 1
                    else:
                        cpt_commit(k, kd & (8 >> code))
                codes[j] = code | 2
                continue
            if kd & 2:
                # Write-back miss: re-allocate dirty in the probed set.
                base_p = base
                fill_dirty = 1
                critical = 0
            else:
                ts = ts_a[j]
                arrival = ts + pen + (tomcr_a[j] if code else tomcs_a[j])
                start = arrival if arrival > pipe_free else pipe_free
                queue_acc += start - arrival
                pipe_free = start + service
                row = row_a[j]
                rbank = row & dram_mask
                if open_get(rbank) == row:
                    mlat = rowhit_cycles
                    row_hits += 1
                else:
                    open_rows[rbank] = row
                    mlat = miss_cycles
                lat = (start + mlat - ts) + ret_a[j]
                miss_lat[j] = lat
                critical = 0
                if kd & 1:
                    # CriticalityPredictor.ratio at issue, observe_commit
                    # under this scheme's latency.
                    k = cptk_a[j]
                    issued = iss[k]
                    if issued and blk[k] / issued >= threshold:
                        critical = 1
                    diff = lat - nominal_a[j]
                    stall = stall_a[j]
                    if stall > 0:
                        stall2 = stall + diff / mlp_a[j]
                    else:
                        stall2 = (diff - slack_a[j]) / mlp_a[j]
                    if cpt_commit is None:
                        iss[k] = issued + 1
                        if stall2 >= block_cycles:
                            blk[k] += 1
                    else:
                        cpt_commit(k, stall2 >= block_cycles)
                if critical:
                    base_p = br
                    code |= 4
                else:
                    base_p = bs
                fill_dirty = 0
            codes[j] = code
            # Fill: free way, else the LRU victim.
            gs = base_p // assoc
            oc = occ[gs]
            if oc < assoc:
                pos = base_p + oc
                occ[gs] = oc + 1
            else:
                seg = age_f[base_p:base_p + assoc]
                pos = base_p + seg.index(min(seg))
                vid = tags_f[pos]
                if vid >= 0:
                    copies[vid] -= 1
                    if memo[vid] == pos:
                        memo[vid] = -1
                    # Eviction-time clear_mapping_bit.
                    mbit[vid] = 0
                if dirty_f[pos]:
                    ts = ts_a[j]
                    start = ts if ts > pipe_free else pipe_free
                    queue_acc += start - ts
                    pipe_free = start + service
                    vrow = int(line_of[vid] if vid >= 0 else ~vid) >> row_shift
                    vbank = vrow & dram_mask
                    if open_get(vbank) == vrow:
                        row_hits += 1
                    else:
                        open_rows[vbank] = vrow
                    mem_writes += 1
            tags_f[pos] = lid
            age_f[pos] = stamp + j
            dirty_f[pos] = fill_dirty
            memo[lid] = pos
            copies[lid] += 1
            # Allocation-time set_mapping_bit.
            mbit[lid] = critical

        # Batched accounting of the chunk from its code bytes.
        code = np.frombuffer(codes, dtype=np.uint8)
        hit = (code & 2).astype(bool)
        probe_r = (code & 1).astype(bool)
        bank = np.where(probe_r, b_r, b_s)
        cb = np.where(probe_r, cb_r, cb_s)
        fetch = ~wb
        fmiss = fetch & ~hit
        wbmiss = wb & ~hit
        place_r = (code & 4).astype(bool)
        n_fmiss = int(fmiss.sum())
        n_wb = int(wb.sum())
        wbs += n_wb
        fetches += m - n_wb
        mem_reads += n_fmiss
        crit_allocs += int(place_r.sum())
        wb_miss_total += int(wbmiss.sum())
        bw += np.bincount(bank[wb], minlength=nb)
        bw += np.bincount(np.where(place_r, b_r, b_s)[fmiss], minlength=nb)
        messages += 2 * m + n_fmiss
        hops += int(rt_hops.take(cb[~fmiss]).sum()) + int(
            miss_hops.take(cb[fmiss] * nmc + mci[fmiss]).sum()
        )
        lat = np.where(hit & fetch, hitlat.take(cb), np.frombuffer(miss_lat))
        total_lat = _ordered_sum(total_lat, lat[fetch])
        rec.scatter_measured(out, lat)

    state.clock += merged.total
    cpt.write_back(cpts)
    stats = llc.stats
    stats.fetches += fetches
    stats.fetch_hits += fetches - mem_reads
    stats.writebacks += wbs
    stats.writeback_hits += wbs - wb_miss_total
    stats.memory_reads += mem_reads
    stats.memory_writes += mem_writes
    stats.total_fetch_latency = total_lat
    llc.wear.add_writes(bw)
    policy.critical_allocations += crit_allocs
    # Every other fill (fetch miss or write-back re-allocation) spreads.
    policy.noncritical_allocations += mem_reads - crit_allocs + wb_miss_total
    mesh.record_traffic(messages, hops)
    _write_back_memory(llc.memory, mem_reads + mem_writes, row_hits,
                       queue_acc, pipe_free, open_rows)
    return out


class _LineIds:
    """Dense ids for the lines a Re-NUCA replay references, and their state.

    One ``np.unique`` over the first copies numbers the stream's
    distinct lines (later copies repeat them): ``ids`` is each
    first-copy record's id, ``line_of`` each id's line.  Per id: both
    candidate banks and global sets (``bank_r``/``set_r`` for R-NUCA,
    ``bank_s``/``set_s`` for S-NUCA), the Mapping Bit ``mbit`` (at the
    start, the critical flag of the warm frame holding the line: the
    reference warm-up sets a line's bit on a critical fill and clears it
    when the line is evicted), the probe memo ``memo`` — a frame holding
    the line, with :attr:`ArrayBanks.index` semantics (-1: none known) — and
    ``copies``, how many frames hold it (at most two, one per mapping).
    ``tags`` is what the loop sees in each frame: the id of a referenced
    line, ``~line`` for a warm line the stream never references, or -1;
    it is written over the state's own tag frames, which the replay
    consumes.  Only the candidate sets of referenced lines are searched
    for warm copies, so the search does not grow with the LLC size.  Mapping
    Bits are per (core, line); lines in the runner's per-core address
    spaces never collide, which is checked.
    """

    def __init__(self, state: ArrayBanks, merged, policy) -> None:
        line, ids = np.unique(merged.measured_column("line"), return_inverse=True)
        ids = ids.astype(np.int32)
        n = len(line)
        core = np.zeros(n, dtype=np.int16)
        record_core = merged.measured_column("core")
        core[ids] = record_core
        if (core[ids] != record_core).any():
            raise SimulationError(
                "Re-NUCA replay needs disjoint per-core line address spaces"
            )
        del record_core
        self.ids = ids
        self.line_of = line
        set_idx = (line >> state.index_shift) & (state.num_sets - 1)
        bank_r = _static_banks(policy._rnuca, core, line)
        bank_s = _static_banks(policy._snuca, core, line)
        self.set_r = (bank_r * state.num_sets + set_idx).astype(np.int32)
        self.set_s = (bank_s * state.num_sets + set_idx).astype(np.int32)
        self.bank_r = bank_r.astype(np.int16)
        self.bank_s = bank_s.astype(np.int16)
        # Find the warm copies: a line can only sit in its two candidate
        # sets (the S-NUCA one skipped when both are the same set).
        assoc = state.assoc
        owner = state.owner.reshape(-1)
        crit = state.critical.reshape(-1)
        memo = np.full(n, -1, dtype=np.int64)
        copies = np.zeros(n, dtype=np.uint8)
        mbit = np.zeros(n, dtype=np.uint8)
        held_at, held_ids = [], []
        for lo in range(0, n, _CHUNK):
            ids = np.arange(lo, min(lo + _CHUNK, n))
            for sets, other in ((self.set_r, None), (self.set_s, self.set_r)):
                held = state.tags[sets[ids]] == line[ids, None]
                if other is not None:
                    held &= (sets[ids] != other[ids])[:, None]
                at, way = np.nonzero(held)
                found = ids[at]
                pos = sets[found] * assoc + way
                if (owner[pos] != core[found]).any():
                    raise SimulationError(
                        "Re-NUCA replay needs disjoint per-core line address spaces"
                    )
                held_at.append(pos)
                held_ids.append(found)
                memo[found] = pos
                copies[found] += 1
                mbit[found] |= crit[pos]
        tags = state.tags.reshape(-1)
        np.invert(tags, out=tags, where=tags >= 0)
        for pos, found in zip(held_at, held_ids):
            tags[pos] = found
        self.tags = tags
        self.memo = array("q", memo.tobytes())
        self.copies = bytearray(copies.tobytes())
        self.mbit = bytearray(mbit.tobytes())


class _CptCounters:
    """The per-core Criticality Predictor Tables as flat counters.

    Every (core, pc) the tables hold or the stream's loads use gets a
    dense key; ``issued``/``blocked`` are the entries' ``num_loads`` and
    ``rob_blocks`` (0 issued: untracked) and ``record_keys`` each
    first-copy load record's key.  The replay reports each chunk's loads
    to :meth:`count_loads`.  While no table can overflow the counters
    are the whole state: a table's LRU order is its entries' last-touch
    order, rebuilt by :meth:`write_back`.  Otherwise ``commit`` is set
    and keeps each table's ``OrderedDict`` recency (with its evictions)
    beside the counters; the replay calls it once per load.
    """

    def __init__(self, cpts, merged) -> None:
        ncores = len(cpts)
        self.ncores = ncores
        load = merged.measured_column("is_load") & ~merged.measured_column("is_wb")
        table_keys = [
            pc * ncores + core
            for core, cpt in enumerate(cpts) for pc in cpt._table
        ]
        self.n_table = len(table_keys)
        self.keys, inv = np.unique(
            np.concatenate((
                np.asarray(table_keys, dtype=np.int64),
                merged.measured_column("pc")[load].astype(np.int64) * ncores
                + merged.measured_column("core")[load],
            )),
            return_inverse=True,
        )
        self.table_ids = inv[:self.n_table]
        self.record_keys = np.zeros(merged.measured, dtype=np.int32)
        self.record_keys[load] = inv[self.n_table:]
        self.key_core = self.keys % ncores
        self.loads = np.zeros(ncores, dtype=np.int64)
        #: Per key, the merged position of its last load (-1: none).
        self.last_load = np.full(len(self.keys), -1, dtype=np.int64)
        self.issued = [0] * len(self.keys)
        self.blocked = [0] * len(self.keys)
        entries = [entry for cpt in cpts for entry in cpt._table.values()]
        for k, (issued, blocked) in zip(self.table_ids.tolist(), entries):
            self.issued[k] = issued
            self.blocked[k] = blocked
        key_core = self.key_core.tolist()
        per_core = np.bincount(self.key_core, minlength=ncores)
        caps = [cpt.config.table_entries for cpt in cpts]
        self.commit = None
        self.inserts = [0] * ncores
        self.evictions = [0] * ncores
        if all(count <= cap for count, cap in zip(per_core.tolist(), caps)):
            return
        self.tables = tables = [OrderedDict() for _ in cpts]
        for k in self.table_ids.tolist():
            tables[key_core[k]][k] = None
        issued_l, blocked_l = self.issued, self.blocked
        inserts, evictions = self.inserts, self.evictions

        def commit(k, blocked):
            # ratio() at issue, then observe_commit, on a bounded table.
            core = key_core[k]
            table = tables[core]
            if issued_l[k]:
                table.move_to_end(k)
                issued_l[k] += 1
                if blocked:
                    blocked_l[k] += 1
                return
            if len(table) >= caps[core]:
                old = table.popitem(last=False)[0]
                issued_l[old] = blocked_l[old] = 0
                evictions[core] += 1
            table[k] = None
            issued_l[k] = 1
            blocked_l[k] = 1 if blocked else 0
            inserts[core] += 1

        self.commit = commit

    def count_loads(self, positions: np.ndarray, keys: np.ndarray) -> None:
        """Count the loads at merged ``positions``, of CPT ``keys``."""
        self.loads += np.bincount(self.key_core[keys], minlength=self.ncores)
        np.maximum.at(self.last_load, keys, positions)

    def write_back(self, cpts) -> None:
        """Rebuild each predictor's table and statistics from the counters."""
        ncores = self.ncores
        key_core = self.key_core
        loads = self.loads.tolist()
        if self.commit is None:
            # LRU order: untouched entries first, in table order, then
            # every touched key by its last load.
            touched = np.flatnonzero(self.last_load >= 0)
            by_touch = touched[np.argsort(self.last_load[touched])]
            fresh = np.ones(len(self.keys), dtype=bool)
            fresh[self.table_ids] = False
            self.inserts = np.bincount(
                key_core[touched[fresh[touched]]], minlength=ncores
            ).tolist()
            stay = ~np.isin(self.table_ids, touched)
            order = np.concatenate((self.table_ids[stay], by_touch))
            orders = [[] for _ in cpts]
            for k in order.tolist():
                orders[int(key_core[k])].append(k)
        else:
            orders = [list(table) for table in self.tables]
        pcs = (self.keys // ncores).tolist()
        for core, cpt in enumerate(cpts):
            table = cpt._table
            table.clear()
            for k in orders[core]:
                table[pcs[k]] = [self.issued[k], self.blocked[k]]
            stats = cpt.stats
            stats.lookups += loads[core]
            stats.lookup_hits += loads[core] - self.inserts[core]
            stats.inserts += self.inserts[core]
            stats.evictions += self.evictions[core]


def _frame_views(state: ArrayBanks, records: int):
    """Flat loop views of ``state``: tags, recency stamps, dirty, occupancy.

    The tag, dirty and occupancy views are the state's own
    ``array('q')``/``bytearray`` buffers (the replay consumes the
    state), cheap to index from the scalar replay loops and a fraction
    of the memory of Python lists.  Recency is not stored: the stamps
    are a fresh ``array('i')`` for a replay of ``records`` records,
    4 bytes per frame.  Warm stamps start at all-zero, as within a set
    the warm ways are already in LRU -> MRU order, and
    ``seg.index(min(seg))`` resolves ties to the lowest way — exactly
    the warm LRU.  Record ``i`` of the replay stamps ``1 + i`` (> 0), so
    touched lines outrank untouched warm ones and each other in record
    order, matching the reference's clock.  The last stamp must fit the
    32-bit item: a longer replay raises :class:`SimulationError`.
    """
    if records >= 2**31 - 1:
        raise SimulationError(
            f"a replay of {records} records overflows the 32-bit recency stamps"
        )
    return (
        state._tag_frames,
        array("i", bytes(4 * len(state._tag_frames))),
        state._dirty_frames,
        state._occ_sets,
    )


def _flat(values: np.ndarray) -> array:
    """A numpy column as a flat ``array``: int64 or float64 items."""
    if values.dtype.kind == "f":
        return array("d", values.astype(np.float64).tobytes())
    return array("q", values.astype(np.int64).tobytes())


def _group_starts(keys: np.ndarray) -> np.ndarray:
    """Per element of sorted ``keys``, the index where its run starts."""
    starts = np.ones(len(keys), dtype=bool)
    starts[1:] = keys[1:] != keys[:-1]
    return np.maximum.accumulate(np.where(starts, np.arange(len(keys)), 0))


def _ordered_sum(start: float, values: np.ndarray) -> float:
    """``start + values[0] + values[1] + ...``, added left to right.

    Replicates a running float ``+=``.  Builtin ``sum()`` does not: its
    float summation is compensated since Python 3.12.
    """
    if not len(values):
        return start
    return float(np.add.accumulate(
        np.concatenate(([start], np.asarray(values, dtype=np.float64)))
    )[-1])


def _write_back_memory(memory, requests, row_hits, queue_cycles, pipe_free, open_rows):
    """Transfer the inlined memory replay's state back into the model."""
    memory.stats.requests += requests
    memory.stats.row_hits += row_hits
    memory.stats.total_queue_cycles += queue_cycles
    memory._pipe_free = pipe_free
    memory._open_rows = open_rows
