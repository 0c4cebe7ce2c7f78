"""The workstation memory bus.

The bus is the only data path between host memory and the network adaptor
board (Section 1: "the network interface device can access host memory
only via DMA ... there are no special memory bus control signals").

Two kinds of traffic matter to the model:

* **DMA transfers** between host memory and the board.  These hold the
  bus :class:`~repro.engine.Resource` for acquisition + per-word transfer
  time (Table 1: 4 cycles + 2 cycles/word at 25 MHz), so concurrent DMAs
  serialize.
* **CPU write traffic** (write-backs and flushes).  The CNI Message Cache
  *snoops* these: every write target that reaches the bus is shown to the
  registered snoopers (Section 2.2, Consistency Snooping).  CPU-side
  cycle costs for this traffic are charged analytically by the cache
  model; the bus only propagates the snoop visibility and counts words.
"""

from __future__ import annotations

from typing import Callable, Generator, List, Optional

import numpy as np

from ..engine import Resource, Simulator
from ..obs import MetricsScope, MetricTemplate, SpanTracer, private_scope
from ..params import SimParams

_METRICS = MetricTemplate(
    ("counter", "dma_transfers", "dma_transfers"),
    ("counter", "dma_bytes", "dma_bytes"),
    ("counter", "snooped_writeback_words", "writeback_words"),
    ("counter", "snooped_writebacks", "snooped_writebacks"),
    ("gauge", "utilization_ns", "utilization_ns"),
)

#: A snooper receives ``(node_id, line_numbers)`` for bus write traffic.
Snooper = Callable[[int, np.ndarray], None]


class MemoryBus:
    """One node's memory bus: a serialized resource plus snoop fan-out."""

    def __init__(self, sim: Simulator, params: SimParams, node_id: int,
                 metrics: Optional[MetricsScope] = None,
                 spans: Optional[SpanTracer] = None):
        self.sim = sim
        self.params = params
        self.node_id = node_id
        self._resource = Resource(sim, f"bus{node_id}")
        self._snoopers: List[Snooper] = []
        self.spans = spans
        self.dma_bytes = 0
        self.dma_transfers = 0
        self.writeback_words = 0
        self.snooped_writebacks = 0
        m = metrics if metrics is not None else private_scope()
        m.register(_METRICS, self)

    # -- snooping -------------------------------------------------------------
    def add_snooper(self, snooper: Snooper) -> None:
        """Register a device that observes CPU write traffic (the CNI)."""
        self._snoopers.append(snooper)

    def cpu_write_traffic(self, lines: np.ndarray) -> None:
        """CPU write-backs / flushes of ``lines`` reached the bus.

        Bus occupancy of this traffic is folded into the cache model's
        CPU cost; here we count words and let the snoopers watch the
        addresses (the essence of Section 2.2's mechanism: the interface
        "snoops out the target of the write from the bus").
        """
        if lines.size == 0:
            return
        self.snooped_writebacks += 1
        self.writeback_words += int(lines.size) * (
            self.params.cache_line_bytes // self.params.bus_word_bytes
        )
        for snooper in self._snoopers:
            snooper(self.node_id, lines)

    # -- DMA --------------------------------------------------------------------
    def dma_transfer_ns(self, nbytes: int) -> float:
        """Pure transfer time of a DMA of ``nbytes`` (no queueing)."""
        return self.params.dma_time_ns(nbytes)

    def dma(self, nbytes: int) -> Generator:
        """Coroutine: perform a DMA of ``nbytes`` across the bus.

        Holds the bus for the Table 1 acquisition + transfer time, FIFO
        behind other masters.  Direction does not change cost.
        """
        if nbytes < 0:
            raise ValueError(f"negative DMA size {nbytes}")
        self.dma_transfers += 1
        self.dma_bytes += nbytes
        if self.spans is not None:
            # Span covers queueing + transfer: the DMA latency a master
            # actually experiences, not just the wire time.
            handle = self.spans.begin(f"bus{self.node_id}", "dma", nbytes)
            yield from self._resource.held(self.dma_transfer_ns(nbytes))
            self.spans.end(handle, detail=nbytes)
        else:
            yield from self._resource.held(self.dma_transfer_ns(nbytes))
        return None

    @property
    def utilization_ns(self) -> float:
        """Total time the bus has been held by DMA masters."""
        return self._resource.total_hold_ns
