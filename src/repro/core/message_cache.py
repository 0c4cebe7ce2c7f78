"""The Message Cache (Section 2.2).

The adaptor board keeps page-sized *cached buffers* that mirror host
memory pages, so that

* a page transmitted repeatedly is DMAed from host memory only once
  (**transmit caching**),
* a page received earlier can later be forwarded to another node without
  a host-memory DMA (**receive caching** — "potentially reduces the cost
  of page migration in shared memory applications"), and
* CPU stores are absorbed by **consistency snooping**: the board watches
  the memory bus, reverse-translates each write target through the RTLB,
  and patches the cached buffer, keeping it consistent.

Buffers are host-page-sized and managed in *approximate LRU* order — we
implement a second-chance clock, the canonical approximate-LRU, matching
the paper's wording.  The mapping from host virtual page to buffer lives
in the **buffer map**.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..engine import Counters
from ..memory import BoardTLB
from ..obs import MetricsScope, MetricTemplate, private_scope
from ..params import SimParams


@dataclass
class _Buffer:
    """One cached buffer slot on the board."""

    index: int
    vpage: int = -1
    valid: bool = False
    referenced: bool = False  # clock (second-chance) bit


_METRICS = MetricTemplate(
    ("counter", "hits", "hits"),
    ("counter", "misses", lambda mc: mc.lookups - mc.hits),
    ("counter", "insertions", "insertions"),
    ("counter", "evictions", "evictions"),
    ("counter", "invalidations", "invalidations"),
    ("counter", "snoop_updates", "snoop_updates"),
    ("counter", "snoop_aborts", "snoop_aborts"),
    ("gauge", "occupancy", "occupancy"),
    ("gauge", "capacity", "capacity"),
)


class MessageCache:
    """Buffer map + cached buffers + snoop logic for one board."""

    def __init__(self, params: SimParams, tlb: BoardTLB,
                 counters: Optional[Counters] = None,
                 metrics: Optional[MetricsScope] = None):
        self.params = params
        self.tlb = tlb
        self.counters = counters if counters is not None else Counters()
        n = params.message_cache_buffers
        self._buffers: List[_Buffer] = [_Buffer(i) for i in range(n)]
        self._map: Dict[int, _Buffer] = {}  # the buffer map: vpage -> buffer
        self._clock_hand = 0
        self.lookups = 0
        self.hits = 0
        self.snoop_updates = 0
        self.snoop_aborts = 0
        self.insertions = 0
        self.evictions = 0
        self.invalidations = 0
        m = metrics if metrics is not None else private_scope()
        m.register(_METRICS, self)

    # -- capacity ---------------------------------------------------------------
    @property
    def capacity(self) -> int:
        """Number of page buffers the board holds."""
        return len(self._buffers)

    @property
    def occupancy(self) -> int:
        """Valid buffers currently mapped."""
        return len(self._map)

    def cached_pages(self) -> List[int]:
        """The virtual pages currently cached (diagnostics, tests)."""
        return sorted(self._map)

    # -- lookups ---------------------------------------------------------------
    def lookup_transmit(self, vpage: int) -> bool:
        """Transmit-path buffer-map probe (the paper's hit-ratio metric).

        A hit means the transmit processor sends straight from board
        memory, skipping the host DMA.
        """
        self.counters.inc("mc_page_lookups")
        self.lookups += 1
        buf = self._map.get(vpage)
        if buf is not None and buf.valid:
            buf.referenced = True
            self.counters.inc("mc_page_hits")
            self.hits += 1
            return True
        return False

    def contains(self, vpage: int) -> bool:
        """Non-statistical probe (does not count toward the hit ratio)."""
        buf = self._map.get(vpage)
        return buf is not None and buf.valid

    # -- insertion / eviction -----------------------------------------------------
    def insert(self, vpage: int) -> None:
        """Bind ``vpage`` to a buffer (transmit or receive caching).

        No-op when the page is already cached (the copy was just
        refreshed) or when the cache has no buffers (ablation).  Evicts
        the clock victim on capacity conflict.
        """
        if self.capacity == 0:
            return
        buf = self._map.get(vpage)
        if buf is not None:
            buf.valid = True
            buf.referenced = True
            return
        buf = self._find_victim()
        if buf.valid:
            del self._map[buf.vpage]
            self.evictions += 1
        buf.vpage = vpage
        buf.valid = True
        # The reference bit starts clear: a page earns its second chance
        # by being *used* (transmit hit), not by merely arriving.
        buf.referenced = False
        self._map[vpage] = buf
        self.insertions += 1

    def _find_victim(self) -> _Buffer:
        """Second-chance clock sweep (approximate LRU, Section 2.2)."""
        n = self.capacity
        for _ in range(2 * n + 1):
            buf = self._buffers[self._clock_hand]
            self._clock_hand = (self._clock_hand + 1) % n
            if not buf.valid:
                return buf
            if buf.referenced:
                buf.referenced = False
            else:
                return buf
        return self._buffers[self._clock_hand]  # pragma: no cover

    def invalidate(self, vpage: int) -> bool:
        """Drop the cached copy of ``vpage`` (DSM invalidation, unmap).

        Returns whether a buffer was dropped.
        """
        buf = self._map.pop(vpage, None)
        if buf is None:
            return False
        buf.valid = False
        buf.vpage = -1
        buf.referenced = False
        self.invalidations += 1
        return True

    # -- snooping -------------------------------------------------------------
    def snoop(self, frames: np.ndarray, offsets_ignored: bool = True) -> int:
        """Consistency snooping of CPU write traffic (Section 2.2).

        ``frames`` are the physical page frames of write targets seen on
        the bus.  Each is reverse-translated through the RTLB; writes to
        pages without a cached buffer abort; writes to cached pages patch
        the buffer (we track validity, not bytes — the authoritative data
        lives in the DSM page store).  Returns the number of absorbed
        writes.

        With snooping disabled (ablation), the board cannot absorb the
        write, so the cached copy becomes stale and is invalidated
        instead — see :meth:`snoop_disabled_writeback`.
        """
        absorbed = 0
        for frame in np.unique(frames):
            vpage = self.tlb.rtlb_p2v(int(frame))
            if vpage is None:
                self.snoop_aborts += 1
                continue
            buf = self._map.get(vpage)
            if buf is None or not buf.valid:
                self.snoop_aborts += 1
                continue
            absorbed += 1
            self.snoop_updates += 1
        return absorbed

    def snoop_disabled_writeback(self, frames: np.ndarray) -> int:
        """Ablation path: CPU writes reach memory unobserved, so any
        cached copy of the written pages is now stale and must be
        invalidated.  Returns the number of invalidations."""
        dropped = 0
        for frame in np.unique(frames):
            vpage = self.tlb.rtlb_p2v(int(frame))
            if vpage is not None and self.invalidate(vpage):
                dropped += 1
        return dropped

    # -- reporting ---------------------------------------------------------------
    @property
    def hit_ratio(self) -> float:
        """Page-granular transmit hit ratio (buffer-map probes only).

        The paper's headline "network cache hit ratio" is per *message
        transmission* and is maintained by the NIC (board-resident
        sources count as hits); this property is the narrower buffer-map
        view used for diagnostics."""
        return self.counters.ratio("mc_page_hits", "mc_page_lookups")
