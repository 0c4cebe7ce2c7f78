"""Application Interrupt Handlers (Section 2.3).

Applications compile protocol code "in a pointer-safe language
environment ... to relocatable network interface object code"; at
connection setup the code is swapped into a free segment of board memory
and the PATHFINDER is programmed to transfer control to it when a
matching packet arrives.  There is deliberately *no virtual memory* on
the board: the whole handler is resident (a page fault on the NI would be
ruinous at line rate).

In the simulation a handler is a Python callable standing in for the
object code, registered together with its object-code size; the registry
enforces the board's handler-memory capacity and models swap-in cost.
Handlers run on the NI processor's clock inside the receive path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..obs import MetricsScope, MetricTemplate, private_scope
from ..params import SimParams

#: A handler receives (packet, nic) and returns an optional generator of
#: further NI work (so handlers can send replies through the NIC).
HandlerFn = Callable[..., Any]


class HandlerError(RuntimeError):
    """Installation or dispatch failure in the handler subsystem."""


@dataclass
class _Segment:
    """One occupied region of the board's handler memory."""

    key: int
    size: int
    fn: HandlerFn


_METRICS = MetricTemplate(
    ("counter", "dispatches", "dispatches"),
    ("counter", "swap_ins", "swap_ins"),
    ("gauge", "handler_bytes_used", "used_bytes"),
)


class HandlerRegistry:
    """Board-resident Application Interrupt Handler store.

    ``memory_bytes`` is the board memory reserved for handler object code
    (the OSIRIS board carries 1 MB total; the evaluation assumes a single
    parallel application owns the handler region).
    """

    def __init__(self, params: SimParams, memory_bytes: int = 256 * 1024,
                 metrics: Optional[MetricsScope] = None):
        if memory_bytes < 0:
            raise ValueError("negative handler memory")
        self.params = params
        self.memory_bytes = memory_bytes
        self._segments: Dict[int, _Segment] = {}
        self.dispatches = 0
        self.swap_ins = 0
        m = metrics if metrics is not None else private_scope()
        m.register(_METRICS, self)

    # -- installation -----------------------------------------------------------
    @property
    def used_bytes(self) -> int:
        """Handler memory currently occupied."""
        return sum(s.size for s in self._segments.values())

    def install(self, key: int, fn: HandlerFn, code_size: int) -> float:
        """Swap handler ``fn`` in under ``key``; returns the swap-in time.

        Swap-in cost models copying the object code over the bus at
        connection setup — off the critical path, but not free.
        Installation fails when the handler region is exhausted or the
        key is taken; re-keying is the application's problem, as it would
        be on the real board.
        """
        self.install_many(((key, fn, code_size),))
        return self.params.dma_time_ns(code_size)

    def install_many(self,
                     handlers: Iterable[Tuple[int, HandlerFn, int]]) -> None:
        """Swap in ``(key, fn, code_size)`` handlers in one step, as
        :meth:`install` would one by one; all or nothing."""
        handlers = tuple(handlers)
        used = self.used_bytes
        fresh = set()
        for key, _fn, code_size in handlers:
            if code_size <= 0:
                raise ValueError("handler object code must have positive size")
            if key in self._segments or key in fresh:
                raise HandlerError(f"handler key {key} already installed")
            if used + code_size > self.memory_bytes:
                raise HandlerError(
                    f"handler memory exhausted: {used}+{code_size} "
                    f"> {self.memory_bytes}"
                )
            fresh.add(key)
            used += code_size
        for key, fn, code_size in handlers:
            self._segments[key] = _Segment(key, code_size, fn)
        self.swap_ins += len(handlers)

    def uninstall(self, key: int) -> None:
        """Free a handler segment (connection teardown)."""
        if key not in self._segments:
            raise HandlerError(f"handler key {key} not installed")
        del self._segments[key]

    def installed(self, key: int) -> bool:
        """Whether ``key`` has resident code."""
        return key in self._segments

    # -- dispatch ----------------------------------------------------------------
    def dispatch(self, key: int) -> HandlerFn:
        """Control transfer into handler ``key`` (PATHFINDER-triggered).

        The *cost* (``ni_handler_dispatch_cycles`` plus the handler's own
        work) is charged by the NIC receive loop; this resolves the
        entry point.
        """
        seg = self._segments.get(key)
        if seg is None:
            raise HandlerError(f"no handler installed for key {key}")
        self.dispatches += 1
        return seg.fn

    def dispatch_time_ns(self) -> float:
        """NI time for the control transfer itself."""
        return self.params.ni_cycles_ns(self.params.ni_handler_dispatch_cycles)

    def handler_keys(self) -> List[int]:
        """Installed keys (diagnostics)."""
        return sorted(self._segments)
