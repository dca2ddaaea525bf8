"""Next-line prefetch-on-miss wrapper: the BCP configuration.

Implements the classic *prefetch on miss* policy (§2.2): "if a referenced
cache line ``l`` is not in the cache, line ``l`` is loaded into the data
cache and line ``l+1`` is brought into the prefetch buffer", with tagged
re-arming (consuming a buffered line prefetches its successor, keeping a
stream running — and burning bandwidth when the stream is illusory).

Timing and accounting rules:

* prefetched lines live ONLY in the buffers — they are read *through* the
  lower levels without being installed anywhere, so prefetching neither
  pollutes a cache nor masks the lower level's demand-miss statistics;
* each buffer entry records when its data arrives; a demand access that
  beats the prefetch ("late prefetch") counts as a **miss** whose penalty
  is the remaining flight time — only an access that *finds* its data in
  the buffer escapes the miss count (paper §4.4);
* prefetch-induced transfers travel as ``TrafficKind.PREFETCH`` (the
  Figure 10 BCP traffic blow-up).

The wrapper plays both hierarchy roles, like the caches it wraps:
CPU-facing (:meth:`access`, the L1 position, 8-entry buffer) and
:class:`~repro.caches.interface.LineSource` (:meth:`fetch` /
:meth:`write_back`, the L2 position, 32-entry buffer).
"""

from __future__ import annotations

from repro.caches.base import Cache, CacheFacade
from repro.caches.interface import AccessResult, FetchResponse
from repro.caches.prefetch_buffer import PrefetchBuffer
from repro.errors import ConfigurationError
from repro.memory.bus import TrafficKind
from repro.obs import tracer as _trace

__all__ = ["PrefetchingCache"]


class PrefetchingCache(CacheFacade):
    """A conventional cache plus a next-line prefetch buffer."""

    def __init__(self, cache: Cache, buffer_entries: int) -> None:
        if buffer_entries < 1:
            raise ConfigurationError("prefetch buffer needs at least one entry")
        super().__init__(cache)
        self.buffer = PrefetchBuffer(buffer_entries, cache.line_words)

    # ---- shared helpers -------------------------------------------------------

    def _issue_prefetch(self, missed_line_no: int, now: int) -> None:
        """Prefetch the next sequential line into the buffer.

        The prefetched line is read *through* the levels below via
        :meth:`supply_prefetch` without being installed in any cache:
        "prefetched data is usually kept in a separate prefetch buffer"
        precisely so speculation cannot pollute the caches (§1), and a
        wasted prefetch therefore wastes its full memory transfer — the
        Figure 10 BCP traffic blow-up.
        """
        target = missed_line_no + 1
        target_addr = self.cache.line_addr(target)
        if self.cache.probe(target_addr) or target in self.buffer:
            return
        values, latency = self.cache.downstream.supply_prefetch(
            target_addr, self.cache.line_words, now
        )
        self.buffer.insert(target, values, ready_cycle=now + latency)
        self.stats.prefetches_issued += 1
        if _trace.ACTIVE:
            _trace.emit(
                "prefetch",
                level=self.cache.name,
                line=target,
                ready_cycle=now + latency,
            )

    # ---- CPU-facing role (BCP L1) ------------------------------------------------

    def access(
        self, addr: int, write: bool = False, value: int | None = None, now: int = 0
    ) -> AccessResult:
        """CPU access: cache first, then the buffer, then demand fetch."""
        line_no = self.cache.line_no(addr)
        if self.cache.probe(addr):
            return self.cache.access(addr, write=write, value=value, now=now)
        entry = self.buffer.pop(line_no)
        if entry is not None:
            self.cache.install_line(line_no, entry.data)
            result = self.cache.access(addr, write=write, value=value, now=now)
            self._issue_prefetch(line_no, now)  # tagged re-arm
            if entry.ready(now):
                # Found in the buffer: a hit at hit latency (paper §4.4).
                self.stats.buffer_hits += 1
                self.stats.prefetches_useful += 1
                return AccessResult(
                    latency=result.latency, served_by="l1-buffer", value=result.value
                )
            # Late prefetch: the data is still in flight — a miss whose
            # penalty is the remaining flight time.
            self.stats.hits -= 1  # reclassify the cache.access hit
            self.stats.misses += 1
            self.stats.extra["late_prefetch_hits"] = (
                self.stats.extra.get("late_prefetch_hits", 0) + 1
            )
            remaining = entry.ready_cycle - now
            return AccessResult(
                latency=remaining, served_by="l1-buffer-late", value=result.value
            )
        result = self.cache.access(addr, write=write, value=value, now=now)
        self._issue_prefetch(line_no, now)
        return result

    # ---- LineSource role (BCP L2) ----------------------------------------------------

    def fetch(
        self,
        addr: int,
        n_words: int,
        need_word: int,
        *,
        kind: TrafficKind = TrafficKind.FILL,
        now: int = 0,
        pair_addr: int | None = None,
    ) -> FetchResponse:
        """Serve a demand request from above: cache, then buffer, then
        below. (Upper-level prefetches arrive via :meth:`supply_prefetch`,
        never here, so everything seen by this method is demand; the
        wrapped conventional cache has no compressed payload to give, so
        *pair_addr* is accepted for protocol compatibility and unused.)
        """
        line_no = self.cache.line_no(addr)
        if self.cache.probe(addr):
            return self.cache.fetch(addr, n_words, need_word, kind=kind, now=now)
        entry = self.buffer.pop(line_no)
        if entry is not None:
            self.cache.install_line(line_no, entry.data)
            resp = self.cache.fetch(
                addr, n_words, need_word, kind=kind, record=False, now=now
            )
            self._issue_prefetch(line_no, now)  # tagged re-arm
            if entry.ready(now):
                self.stats.record_access(hit=True)
                self.stats.buffer_hits += 1
                self.stats.prefetches_useful += 1
                return FetchResponse(
                    values=resp.values,
                    avail=resp.avail,
                    latency=resp.latency,
                    served_by="l2-buffer",
                )
            # Late prefetch: still in flight when the request arrived.
            self.stats.record_access(hit=False)
            self.stats.extra["late_prefetch_hits"] = (
                self.stats.extra.get("late_prefetch_hits", 0) + 1
            )
            return FetchResponse(
                values=resp.values,
                avail=resp.avail,
                latency=max(resp.latency, entry.ready_cycle - now),
                served_by="l2-buffer-late",
            )
        resp = self.cache.fetch(addr, n_words, need_word, kind=kind, now=now)
        self._issue_prefetch(line_no, now)
        return resp

    def supply_prefetch(self, addr: int, n_words: int, now: int = 0):
        """Serve an upper-level prefetch: peek the cache, then the buffer,
        then forward toward memory — never installing anything here.

        Not counted in demand hit/miss statistics (the paper's miss
        figures count demand accesses only); the memory transfer of a
        fall-through is still recorded on the bus as prefetch traffic.
        """
        line_no = self.cache.line_no(addr)
        offset = (addr >> 2) & (self.cache.line_words - 1)
        data = self.cache.peek_line(line_no)
        if data is not None:
            return data[offset : offset + n_words], self.cache.hit_latency
        entry = self.buffer.peek(line_no)
        if entry is not None:
            latency = max(self.cache.hit_latency, entry.ready_cycle - now)
            return entry.data[offset : offset + n_words], latency
        values, below = self.cache.downstream.supply_prefetch(addr, n_words, now)
        return values, self.cache.hit_latency + below

    def write_back(self, addr: int, values, mask, comp: int | None = None) -> None:
        """Accept an upper-level eviction, merging any buffered copy first."""
        line_no = self.cache.line_no(addr)
        if not self.cache.probe(addr):
            entry = self.buffer.pop(line_no)
            if entry is not None:
                # Merge into the buffered copy via the cache to keep one
                # copy; a writeback move is a coherence action, not a hit.
                self.cache.install_line(line_no, entry.data)
        self.cache.write_back(addr, values, mask, comp)

    def flush(self) -> None:
        """Flush the wrapped cache and drop the (clean) buffer contents."""
        super().flush()
        self.buffer.clear()
