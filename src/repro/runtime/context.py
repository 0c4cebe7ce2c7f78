"""The application-thread API: compute, shared access, synchronization.

Application kernels are generator functions receiving a :class:`Context`;
every potentially-blocking operation is a ``yield from``.  The context
performs the *execution-driven* part: shared reads and writes move real
numpy data through the global store while the cache model prices every
touched line and the DSM engine intercepts page faults.
"""

from __future__ import annotations

from typing import Generator, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..engine import Category
from ..memory import lines_in_range
from .node import Node

#: A contiguous byte run inside the shared segment: (vaddr, nbytes).
Run = Tuple[int, int]


class Context:
    """Per-(node, application-thread) execution context."""

    def __init__(self, node: Node, rank: int, nprocs: int):
        self.node = node
        self.rank = rank
        self.nprocs = nprocs
        self.params = node.params
        self.engine = node.engine
        self.sim = node.sim

    # ------------------------------------------------------------- computation --
    def compute(self, cycles: float) -> Generator:
        """Charge ``cycles`` of pure computation (plus any host time the
        network stole since the last burst)."""
        if cycles < 0:
            raise ValueError("negative compute cycles")
        ns = self.params.cpu_cycles_ns(cycles)
        stolen = self.node.take_stolen_ns()
        yield ns + stolen
        self.node.account_compute(ns)
        return None

    def idle(self, cycles: float) -> Generator:
        """Charge ``cycles`` of busy-waiting (spin backoff).

        Accounted as *synch delay*: the processor is burning time
        waiting for work/synchronization, not computing."""
        if cycles < 0:
            raise ValueError("negative idle cycles")
        ns = self.params.cpu_cycles_ns(cycles)
        yield ns
        self.node.account_delay(ns)
        return None

    # ------------------------------------------------------------ shared access --
    def access_runs(self, runs: Sequence[Run], is_write: bool) -> Generator:
        """Touch contiguous shared byte runs (the core access primitive).

        Ensures every covered page is accessible (faulting through the
        DSM engine where not), simulates the cache over the exact line
        stream, records written ranges for the write collector, and
        charges the memory time as computation.
        """
        if not runs:
            return None
        line_size = self.params.cache_line_bytes
        page_size = self.params.page_size_bytes
        segment = self.engine.segment
        dsm_base = segment.asp.dsm_base  # page-aligned
        line_arrays = []
        pages = set()
        for vaddr, nbytes in runs:
            if nbytes > 0:
                line_arrays.append(lines_in_range(vaddr, nbytes, line_size))
                start = vaddr - dsm_base
                pages.update(range(start // page_size,
                                   (start + nbytes - 1) // page_size + 1))
        if not line_arrays:
            return None
        lines = np.concatenate(line_arrays)

        # Page-presence check and faults, in page order.
        for page in sorted(pages):
            if not 0 <= page < segment.npages:
                raise ValueError(
                    f"shared access to page {page} outside the DSM "
                    f"segment of {segment.npages} pages")
            if not self.engine.page_accessible(page, is_write):
                yield from self.engine.fault(page, is_write)

        # Record writes for the interval's write notices / diff sizes.
        if is_write:
            for vaddr, nbytes in runs:
                if nbytes <= 0:
                    continue
                start = vaddr - dsm_base
                first_page = start // page_size
                last_page = (start + nbytes - 1) // page_size
                for p in range(first_page, last_page + 1):
                    lo = max(start, p * page_size)
                    hi = min(start + nbytes, (p + 1) * page_size)
                    self.engine.collector.record_write(
                        p, lo - p * page_size, hi - lo
                    )

        # Cache simulation: the exact ordered line stream.
        cost = self.node.cache.access(lines, is_write)
        if cost.writeback_lines.size:
            self.node.memory.record_writebacks(int(cost.writeback_lines.size))
            self.node.bus.cpu_write_traffic(cost.writeback_lines)
        self.node.memory.record_fills(cost.memory_accesses)
        ns = self.params.cpu_cycles_ns(cost.cpu_cycles)
        yield ns
        self.node.account_compute(ns)
        return None

    def read_runs(self, runs: Sequence[Run]) -> Generator:
        """Read contiguous shared runs (cost only; data via SharedArray)."""
        yield from self.access_runs(runs, is_write=False)
        return None

    def write_runs(self, runs: Sequence[Run]) -> Generator:
        """Write contiguous shared runs (cost + write recording)."""
        yield from self.access_runs(runs, is_write=True)
        return None

    # ---------------------------------------------------------- synchronization --
    def acquire(self, lock_id: int) -> Generator:
        """Acquire a distributed lock."""
        yield from self.engine.acquire(lock_id)
        return None

    def release(self, lock_id: int) -> Generator:
        """Release a distributed lock (a release operation: publishes
        this interval's writes)."""
        yield from self.engine.release(lock_id)
        return None

    def barrier(self, barrier_id: int = 0) -> Generator:
        """Cross a global barrier."""
        yield from self.engine.barrier(barrier_id)
        return None

    # ------------------------------------- collectives (docs/collectives.md) --
    def allreduce(self, value, op: str = "sum", coll_id: int = 0) -> Generator:
        """Combine ``value`` (scalar or flat sequence, elementwise)
        across all nodes; every node returns the combined result."""
        result = yield from self.node.coll.allreduce(
            value, op=op, coll_id=coll_id)
        return result

    def reduce(self, value, op: str = "sum", root: Optional[int] = None,
               coll_id: int = 0) -> Generator:
        """Combine ``value`` at the root; the root returns the result,
        everyone else returns ``None`` without blocking."""
        result = yield from self.node.coll.reduce(
            value, op=op, root=root, coll_id=coll_id)
        return result

    def broadcast(self, value=None, root: Optional[int] = None,
                  coll_id: int = 0) -> Generator:
        """Return the root's ``value`` on every node (one-to-all)."""
        result = yield from self.node.coll.broadcast(
            value, root=root, coll_id=coll_id)
        return result

    def multicast(self, value=None, dests=(), src: Optional[int] = None,
                  coll_id: int = 0) -> Generator:
        """One-to-some: destinations return the source's ``value``,
        non-participants fall through with ``None``."""
        result = yield from self.node.coll.multicast(
            value, dests=dests, src=src, coll_id=coll_id)
        return result

    # -------------------------------------------------------------- messaging --
    def send(self, dst: int, vaddr: Optional[int], nbytes: int,
             channel_id: Optional[int] = None,
             cacheable: bool = True, payload=None,
             kind=None, handler_key: int = 0) -> Generator:
        """User-level message send of a registered buffer.

        ``vaddr=None`` sends an immediate/control payload (no buffer to
        flush or DMA); ``kind``/``handler_key`` let the messaging
        runtime stamp protocol packets (docs/runtime.md) — plain
        application sends leave both at their defaults and travel as
        DATA.
        """
        from ..core.adc import TransmitDescriptor

        if vaddr is not None:
            yield from self.node.flush_buffer(vaddr, nbytes)
        t0 = self.sim.now
        done = self.sim.event()
        desc = TransmitDescriptor(
            dst_node=dst,
            vaddr=vaddr,
            length=nbytes,
            handler_key=handler_key,
            cacheable=cacheable,
            payload=payload,
            channel_id=(channel_id if channel_id is not None
                        else self.node.dsm_channel_id),
            completion=done,
            kind=kind,
        )
        yield from self.node.nic.host_send(desc)
        self.node.account_overhead(self.sim.now - t0)
        # The buffer may be DMAed until the board consumes the
        # descriptor; block reuse until then (completion is how the real
        # transmit queue signals it).
        t1 = self.sim.now
        self.node.app_blocked = True
        try:
            yield done
        finally:
            self.node.app_blocked = False
        self.node.account_delay(self.sim.now - t1)
        return None

    def recv(self, deadline_ns: Optional[float] = None) -> Generator:
        """Wait for the next inbound DATA message; returns its descriptor.

        ``deadline_ns`` bounds the wait (None takes
        ``SimParams.op_deadline_ns``; 0 waits forever); expiry raises
        :class:`~repro.runtime.RuntimeTimeout`."""
        desc = yield from self.node.wait_for_message(deadline_ns=deadline_ns)
        return desc

    # ------------------------------------------------------- failure detection --
    def suspected_peers(self) -> List[int]:
        """Ranks the local NIC's heartbeat failure detector currently
        suspects crashed (empty when heartbeats are off)."""
        return self.node.nic.detector.suspected_peers()

    def peer_suspected(self, rank: int) -> bool:
        """Whether the local failure detector suspects ``rank`` crashed."""
        return self.node.nic.detector.is_suspected(rank)
