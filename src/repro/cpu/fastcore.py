"""The ``fast`` simulation backend's core: flat-array event-driven loop.

Bit-identical re-expression of :class:`repro.cpu.pipeline.OutOfOrderCore`
(the ``reference`` backend), rebuilt around three observations:

* **The ROB is an index range.** Dispatch and commit are both in
  program order, so the in-flight window is exactly the contiguous trace
  indices ``[committed, disp_end)`` and the IFQ is ``[disp_end,
  i_fetch)`` — two ints replace the deques, and per-instruction state
  lives in ``bytearray`` columns indexed by trace position instead of
  recycled ``RUUEntry`` objects. The issue stage walks a sorted list of
  exactly the READY indices, never the whole window.
* **Renaming is static.** The pre-decoded dependence edges
  (:mod:`repro.isa.predecode`) make the register-producer map, consumer
  lists and store-forwarding lists pure array probes: a source is
  pending iff its producer index is ``>= committed`` and not DONE; a
  load forwards iff its youngest older same-address store is
  ``>= committed`` (commit is in order, so that single comparison is the
  reference's in-flight-list scan).
* **Fetch outcomes are precomputed.** With a fresh bimod table the whole
  mispredict stream is a pure function of the trace; batched fetch
  advances ``i_fetch`` in blocks using a next-mispredict array instead
  of testing every instruction.

Statistics stay bit-identical: the Welford ready-queue accumulators run
the reference's exact per-cycle formula (and its exact idle-skip bulk
formula), and the cache word-ops' uncounted hit paths are tallied
locally and flushed into :class:`~repro.caches.stats.CacheStats` once at
the end — counter addition is order-free.

Every L1 the hierarchy builders make takes word-ops (``load_word`` /
``store_word``): the conventional and compression caches, and the
:class:`~repro.caches.base.CacheFacade` wrappers of BCP/BSP (prefetch
buffers) and BVC (victim buffer). So every config runs on the compiled
kernel (:mod:`repro.cpu.ckernel`) when one can be built. The Python loop
here is the fallback when it cannot, and — with word-ops switched off so
every hook fires in ``access()`` — the loop of fault-injection and
``REPRO_CHECK`` runs.

Anything the flat loop cannot observe faithfully — load verification,
event tracing, the i-cache model, a warm (reused) predictor — falls back
to the reference core wholesale, sharing this core's predictor so the
handoff is seamless.
"""

from __future__ import annotations

import heapq
from bisect import insort as _insort

from repro.caches.base import Cache
from repro.caches.compression_cache import CompressionCache
from repro.caches.hierarchy import Hierarchy
from repro.caches.interface import CODE_BITS, SERVED_BY_CODES
from repro.caches.next_line import PrefetchingCache
from repro.caches.stride import StridePrefetchingCache
from repro.caches.victim import VictimCache
from repro.check.runtime import runtime_checks_enabled
from repro.cpu.branch import BimodPredictor
from repro.cpu.metrics import CoreMetrics
from repro.cpu.pipeline import CoreConfig, CoreResult, OutOfOrderCore
from repro.cpu.resources import FuPool
from repro.errors import TraceError
from repro.inject import hooks as _inject
from repro.isa.predecode import get_predecoded
from repro.isa.trace import Trace
from repro.obs import tracer as _trace

__all__ = ["FastCore"]

#: Completion-heap entries pack ``(cycle << _IDX_BITS) | idx`` into one
#: int (int comparisons beat tuple comparisons and skip the per-event
#: allocation). Same-cycle completions pop in index order, which is
#: immaterial: writeback effects (DONE marks, wake-counter decrements,
#: a same-valued ``pending_resume``) commute.
_IDX_BITS = 25
_IDX_MASK = (1 << _IDX_BITS) - 1

#: L1 classes meeting the word-op contract (``load_word``/``store_word``
#: with an uncounted inline MRU hit). Exact types, not subclasses: a
#: subclass could change what an MRU hit does.
_WORD_OP_L1S = (
    Cache,
    CompressionCache,
    PrefetchingCache,
    StridePrefetchingCache,
    VictimCache,
)
_CODE_MASK = (1 << CODE_BITS) - 1


class FastCore:
    """Drop-in replacement for :class:`OutOfOrderCore` (``fast`` backend)."""

    def __init__(
        self,
        hierarchy: Hierarchy,
        config: CoreConfig | None = None,
        *,
        verify_loads: bool = False,
    ) -> None:
        self.hierarchy = hierarchy
        self.config = config if config is not None else CoreConfig()
        self.verify_loads = verify_loads
        self.predictor = BimodPredictor(self.config.bimod_entries)

    # ---- fallback -----------------------------------------------------------

    def _needs_reference(self) -> bool:
        """Conditions under which only the fully general loop is faithful."""
        return (
            self.config.icache_enabled
            or self.verify_loads
            or _trace.ACTIVE
            or self.predictor.lookups != 0
        )

    def _run_reference(self, trace: Trace) -> CoreResult:
        core = OutOfOrderCore(
            self.hierarchy, self.config, verify_loads=self.verify_loads
        )
        core.predictor = self.predictor
        return core.run(trace)

    # ---- the loop -----------------------------------------------------------

    def run(self, trace: Trace) -> CoreResult:
        """Execute *trace* to completion; returns cycles and metrics."""
        if self._needs_reference():
            return self._run_reference(trace)
        cfg = self.config
        hier = self.hierarchy
        metrics = CoreMetrics()
        n = len(trace)
        if n == 0:
            return CoreResult(0, metrics, 0, 0)
        if n >= 1 << _IDX_BITS:
            # Trace indices would overflow the packed heap entries; such
            # traces are far past any paper-scale run anyway.
            return self._run_reference(trace)

        pre = get_predecoded(trace)
        branch = pre.branch(trace, cfg.bimod_entries)
        bp_branches = branch.n_branches
        bp_mispredicts = branch.n_mispredicts
        l1 = hier.l1
        # Word-ops: allocation-free load/store against the L1 with an
        # uncounted inline hit path (stats flushed once at the end). Every
        # L1 the hierarchy builders make implements the contract; only an
        # observation hook (injection, runtime audits) needs the general
        # access() path.
        use_word_ops = (
            type(l1) in _WORD_OP_L1S
            and not _inject.ACTIVE
            and not runtime_checks_enabled()
        )
        hard_limit = 2_000 * n + 1_000_000
        fu = FuPool(cfg.fu)

        # The compiled kernel runs the identical schedule natively on the
        # pre-decode arrays, crossing into Python only for the loads and
        # stores its MRU mirror cannot serve; when it is unavailable the
        # Python loop below produces the same bits.
        if use_word_ops:
            from repro.cpu.ckernel import run_compiled

            tallies = run_compiled(pre, branch, cfg, l1, fu._limits, hard_limit)
            if tallies is not None:
                (
                    now,
                    committed,
                    store_count,
                    n_loads,
                    forwarded_loads,
                    n_mispredicts,
                    fetch_stall_cycles,
                    miss_cycles,
                    all_n,
                    miss_n,
                    uncounted_l1_ops,
                    inline_affiliated_hits,
                    dropped_affiliated_words,
                    served_counts,
                    all_mean,
                    all_m2,
                    miss_mean,
                    miss_m2,
                ) = tallies
                return self._flush(
                    metrics,
                    l1,
                    now,
                    committed,
                    store_count,
                    n_loads,
                    forwarded_loads,
                    n_mispredicts,
                    fetch_stall_cycles,
                    miss_cycles,
                    all_n,
                    all_mean,
                    all_m2,
                    miss_n,
                    miss_mean,
                    miss_m2,
                    served_counts,
                    {},
                    uncounted_l1_ops,
                    bp_branches,
                    bp_mispredicts,
                    inline_affiliated_hits,
                    dropped_affiliated_words,
                )

        # The Python loop reads native lists (no NumPy scalar boxing),
        # built per run from the arrays: only this fallback pays for them.
        t_ismem = pre.is_mem.tolist()
        t_addr = pre.addr.tolist()
        t_value = pre.value.tolist()
        cons_start = pre.cons_start.tolist()
        cons_flat = pre.cons_flat.tolist()
        t_mispred = branch.flags.tolist()
        t_next_mp = branch.next_mp.tolist()
        t_kind = pre.kind.tobytes()
        # Per-stage row tuples: one list index + unpack per instruction
        # per stage, instead of four or five column indexings.
        iss_rows = list(
            zip(
                pre.slot.tolist(),
                pre.is_load.tolist(),
                pre.fwd.tolist(),
                t_addr,
                pre.lat.tolist(),
            )
        )
        disp_rows = list(zip(pre.dep1.tolist(), pre.dep2.tolist(), t_ismem))

        # Per-instruction pipeline state (indices are trace positions;
        # instructions pass through exactly once, so no recycling).
        state = bytearray(n)  # 0 WAITING / 1 READY / 2 ISSUED / 3 DONE
        pending = bytearray(n)
        missf = bytearray(n)  # load miss in flight

        completions: list[int] = []  # (cycle << _IDX_BITS) | idx
        heappush = heapq.heappush
        heappop = heapq.heappop
        insort = _insort

        l1_access = l1.access
        l1_hit_latency = l1.hit_latency
        l1_load_word = l1.load_word if use_word_ops else None
        l1_store_word = l1.store_word if use_word_ops else None

        #: READY trace indices in ascending (program) order: dispatch
        #: appends (indices grow monotonically), writeback wake-ups
        #: insort, issue rebuilds with the FU-blocked survivors.
        ready: list[int] = []
        i_fetch = 0  # next instruction to fetch
        disp_end = 0  # ROB = [committed, disp_end); IFQ = [disp_end, i_fetch)
        committed = 0
        now = 0
        lsq_used = 0
        outstanding_misses = 0
        fetch_blocked = False
        pending_resume: int | None = None

        issue_width = cfg.issue_width
        commit_width = cfg.commit_width
        decode_width = cfg.decode_width
        fetch_width = cfg.fetch_width
        ruu_size = cfg.ruu_size
        lsq_size = cfg.lsq_size
        ifq_size = cfg.ifq_size
        mispredict_penalty = cfg.mispredict_penalty
        forward_latency = cfg.forward_latency
        idle_skip = cfg.enable_idle_skip
        fu_free = fu._free
        fu_limits = fu._limits

        # Locally tallied statistics, flushed once at the end.
        store_count = 0
        n_loads = 0
        forwarded_loads = 0
        n_mispredicts = 0
        fetch_stall_cycles = 0
        miss_cycles = 0
        all_n = 0
        all_mean = 0.0
        all_m2 = 0.0
        miss_n = 0
        miss_mean = 0.0
        miss_m2 = 0.0
        served_counts = [0] * (1 << CODE_BITS)  # per packed word-op code
        served_dict: dict[str, int] = {}  # non-word-op load attribution
        uncounted_l1_ops = 0  # word-op inline hits owing stats accesses/hits

        while committed < n:
            if now > hard_limit:
                raise TraceError(
                    f"core exceeded {hard_limit} cycles at instruction "
                    f"{committed}/{n}: probable deadlock"
                )

            # ---- writeback: results arriving this cycle ------------------
            if completions:
                limit = (now + 1) << _IDX_BITS
                while completions and completions[0] < limit:
                    idx = heappop(completions) & _IDX_MASK
                    state[idx] = 3
                    if missf[idx]:
                        outstanding_misses -= 1
                        missf[idx] = 0
                    for ci in range(cons_start[idx], cons_start[idx + 1]):
                        k = cons_flat[ci]
                        if k < disp_end:
                            p = pending[k] - 1
                            pending[k] = p
                            if p == 0:
                                state[k] = 1
                                insort(ready, k)
                    if t_mispred[idx]:
                        pending_resume = now + mispredict_penalty

            # ---- commit: in order, up to commit_width --------------------
            n_commit = 0
            while committed < disp_end and n_commit < commit_width:
                if state[committed] != 3:
                    break
                idx = committed
                committed += 1
                n_commit += 1
                kind = t_kind[idx]
                if kind:
                    lsq_used -= 1
                    if kind == 2:  # store: write through the L1 at commit
                        if l1_store_word is not None:
                            if l1_store_word(t_addr[idx], t_value[idx], now):
                                uncounted_l1_ops += 1
                        else:
                            l1_access(t_addr[idx], True, t_value[idx], now)
                        store_count += 1
            if committed >= n:
                break  # the last instruction committed this cycle

            # ---- issue: oldest-first among READY entries ------------------
            ready_len = len(ready)
            if ready_len:
                fu_free[:] = fu_limits
                n_issued = 0
                kept: list[int] = []
                for pos, idx in enumerate(ready):
                    slot, is_load, fwd, addr, lat = iss_rows[idx]
                    avail = fu_free[slot]
                    if avail:
                        fu_free[slot] = avail - 1
                        state[idx] = 2
                        if is_load:
                            n_loads += 1
                            if fwd >= committed:
                                # Youngest older same-address store still
                                # in flight: store-to-load forwarding.
                                forwarded_loads += 1
                                lat = forward_latency
                            elif l1_load_word is not None:
                                packed = l1_load_word(addr, now)
                                served_counts[packed & _CODE_MASK] += 1
                                lat = packed >> CODE_BITS
                                if lat < 1:
                                    lat = 1
                            else:
                                # Injection and audit runs take the
                                # general path; tally by name.
                                result = l1_access(addr, False, None, now)
                                sb = result.served_by
                                served_dict[sb] = served_dict.get(sb, 0) + 1
                                lat = result.latency
                                if lat < 1:
                                    lat = 1
                            if lat > l1_hit_latency:
                                missf[idx] = 1
                                outstanding_misses += 1
                        heappush(completions, ((now + lat) << _IDX_BITS) | idx)
                        n_issued += 1
                        if n_issued >= issue_width:
                            kept.extend(ready[pos + 1 :])
                            break
                    else:
                        kept.append(idx)
                ready = kept

            # ---- metrics sample (state as of this cycle) -------------------
            # Same Welford recurrence as the reference ("* 1" elided:
            # IEEE multiplication by one is exact, so bit-identical).
            delta = ready_len - all_mean
            total = all_n + 1
            all_mean += delta / total
            all_m2 += delta * delta * all_n / total
            all_n = total
            if outstanding_misses > 0:
                miss_cycles += 1
                delta = ready_len - miss_mean
                total = miss_n + 1
                miss_mean += delta / total
                miss_m2 += delta * delta * miss_n / total
                miss_n = total
            if fetch_blocked:
                fetch_stall_cycles += 1

            # ---- dispatch: IFQ -> RUU/LSQ ---------------------------------
            n_disp = 0
            while (
                disp_end < i_fetch
                and n_disp < decode_width
                and disp_end - committed < ruu_size
            ):
                idx = disp_end
                d1, d2, is_mem = disp_rows[idx]
                if is_mem and lsq_used >= lsq_size:
                    break
                disp_end += 1
                n_disp += 1
                p = 0
                if d1 >= committed and state[d1] != 3:
                    p = 1
                if d2 >= committed and state[d2] != 3:
                    p += 1
                if p == 0:
                    state[idx] = 1
                    ready.append(idx)  # idx exceeds every queued index
                else:
                    pending[idx] = p
                if is_mem:
                    lsq_used += 1

            # ---- fetch: fill the IFQ unless redirecting --------------------
            if fetch_blocked and pending_resume is not None and now >= pending_resume:
                fetch_blocked = False
                pending_resume = None
            if not fetch_blocked and i_fetch < n:
                room = ifq_size - (i_fetch - disp_end)
                take = fetch_width if fetch_width < room else room
                if take > n - i_fetch:
                    take = n - i_fetch
                if take > 0:
                    next_mp = t_next_mp[i_fetch]
                    if next_mp < i_fetch + take:
                        # Fetch up to and including the mispredicted
                        # branch, then redirect.
                        i_fetch = next_mp + 1
                        n_mispredicts += 1
                        fetch_blocked = True
                    else:
                        i_fetch += take

            # ---- advance the clock, skipping provably idle cycles ----------
            next_now = now + 1
            if (
                idle_skip
                # Pre-issue count, like the reference: a cycle that issued
                # its whole ready set is not "idle" even though the kept
                # list is empty — skipping from it would merge the next
                # explicit zero-sample into the bulk gap and shift the
                # Welford accumulators' rounding by a ULP.
                and ready_len == 0  # nothing ready implies nothing issued
                and n_disp == 0
                and (committed == disp_end or state[committed] != 3)
                and (
                    disp_end == i_fetch
                    or disp_end - committed >= ruu_size
                    or (t_ismem[disp_end] and lsq_used >= lsq_size)
                )
                and (
                    fetch_blocked
                    or i_fetch >= n
                    or i_fetch - disp_end >= ifq_size
                )
            ):
                targets = []
                if completions:
                    targets.append(completions[0] >> _IDX_BITS)
                if fetch_blocked and pending_resume is not None:
                    targets.append(pending_resume)
                if not targets:
                    raise TraceError(
                        f"core deadlocked at cycle {now} "
                        f"({committed}/{n} committed)"
                    )
                skip_to = min(targets)
                if skip_to < next_now:
                    skip_to = next_now
                gap = skip_to - next_now
                if gap > 0:
                    # sample_ready_queue(0, weight=gap), inlined.
                    delta = 0 - all_mean
                    total = all_n + gap
                    all_mean += delta * gap / total
                    all_m2 += delta * delta * all_n * gap / total
                    all_n = total
                    if outstanding_misses > 0:
                        miss_cycles += gap
                        delta = 0 - miss_mean
                        total = miss_n + gap
                        miss_mean += delta * gap / total
                        miss_m2 += delta * delta * miss_n * gap / total
                        miss_n = total
                    if fetch_blocked:
                        fetch_stall_cycles += gap
                next_now = skip_to
            now = next_now

        return self._flush(
            metrics,
            l1,
            now,
            committed,
            store_count,
            n_loads,
            forwarded_loads,
            n_mispredicts,
            fetch_stall_cycles,
            miss_cycles,
            all_n,
            all_mean,
            all_m2,
            miss_n,
            miss_mean,
            miss_m2,
            served_counts,
            served_dict,
            uncounted_l1_ops,
            bp_branches,
            bp_mispredicts,
        )

    def _flush(
        self,
        metrics: CoreMetrics,
        l1,
        now: int,
        committed: int,
        store_count: int,
        n_loads: int,
        forwarded_loads: int,
        n_mispredicts: int,
        fetch_stall_cycles: int,
        miss_cycles: int,
        all_n: int,
        all_mean: float,
        all_m2: float,
        miss_n: int,
        miss_mean: float,
        miss_m2: float,
        served_counts: list[int],
        served_dict: dict[str, int],
        uncounted_l1_ops: int,
        bp_branches: int,
        bp_mispredicts: int,
        inline_affiliated_hits: int = 0,
        dropped_affiliated_words: int = 0,
    ) -> CoreResult:
        """Fold locally tallied statistics into the shared accounting.

        Shared by the Python loop and the compiled kernel — both count
        with the same local tallies, so the flush is identical. Only the
        kernel serves affiliated hits and slot-reclaiming stores inline,
        so only it passes the last two tallies.
        """
        predictor = self.predictor
        predictor.lookups += bp_branches
        predictor.correct += bp_branches - bp_mispredicts
        # code-0 (inline-hit) loads, plus the kernel's inline affiliated
        # hits (already tallied under their own load code); a dropped
        # affiliated word implies a journaled store, so it is covered.
        uncounted_l1_ops += served_counts[0] + inline_affiliated_hits
        if uncounted_l1_ops:
            stats = l1.stats
            stats.accesses += uncounted_l1_ops
            stats.hits += uncounted_l1_ops
            stats.affiliated_hits += inline_affiliated_hits
            stats.dropped_affiliated_words += dropped_affiliated_words
        loads_by_level = metrics.loads_by_level
        if forwarded_loads:
            loads_by_level["forward"] = forwarded_loads
        n_l1 = served_counts[0] + served_counts[1]
        if n_l1:
            loads_by_level["l1"] = n_l1
        for code in range(2, len(SERVED_BY_CODES)):
            if served_counts[code]:
                loads_by_level[SERVED_BY_CODES[code]] = served_counts[code]
        # Word-ops and the general path are mutually exclusive per run,
        # so a plain merge cannot clobber the packed counts.
        for sb, count in served_dict.items():
            loads_by_level[sb] = count
        metrics.load_count = n_loads
        metrics.forwarded_loads = forwarded_loads
        metrics.committed = committed
        metrics.cycles = now
        metrics.store_count = store_count
        metrics.mispredicts = n_mispredicts
        metrics.fetch_stall_cycles = fetch_stall_cycles
        metrics.miss_cycles = miss_cycles
        rq = metrics.ready_queue_all_cycles
        rq.count = all_n
        rq._mean = all_mean
        rq._m2 = all_m2
        rq = metrics.ready_queue_miss_cycles
        rq.count = miss_n
        rq._mean = miss_mean
        rq._m2 = miss_m2
        return CoreResult(
            cycles=now,
            metrics=metrics,
            branch_lookups=predictor.lookups,
            branch_mispredicts=predictor.mispredicts,
        )

