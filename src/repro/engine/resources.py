"""Synchronization and queuing primitives built on the kernel.

These model *simulated-hardware* serialization points: a memory bus that
one master holds at a time, a link that transmits one cell train at a
time, a mailbox between a NIC processor and the host.  They are FIFO and
deterministic.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator, List, Optional, Tuple

from .simulator import Event, Simulator


class Resource:
    """A FIFO mutual-exclusion resource (e.g. the memory bus).

    Usage inside a process::

        yield from bus.acquire()
        yield transfer_time_ns
        bus.release()
    """

    def __init__(self, sim: Simulator, name: str = "resource"):
        self.sim = sim
        self.name = name
        self._busy = False
        self._waiters: Deque[Event] = deque()
        self.total_hold_ns = 0.0
        self.acquisitions = 0
        self._acquired_at = 0.0

    @property
    def busy(self) -> bool:
        """Whether some process currently holds the resource."""
        return self._busy

    @property
    def queue_length(self) -> int:
        """Number of processes waiting for the resource."""
        return len(self._waiters)

    def acquire(self) -> Generator:
        """Coroutine: wait until the resource is free, then hold it."""
        if self._busy:
            ev = self.sim.event()
            self._waiters.append(ev)
            yield ev
        else:
            self._busy = True
        self.acquisitions += 1
        self._acquired_at = self.sim._now
        return None

    def release(self) -> None:
        """Release the resource, waking the next waiter FIFO."""
        if not self._busy:
            raise RuntimeError(f"release of free resource {self.name}")
        now = self.sim._now
        self.total_hold_ns += now - self._acquired_at
        if self._waiters:
            # Hand over directly: the resource stays busy and the next
            # waiter proceeds; FIFO fairness.
            self._acquired_at = now
            self._waiters.popleft().trigger()
        else:
            self._busy = False

    def held(self, duration_ns: float) -> Generator:
        """Coroutine: acquire, hold for ``duration_ns``, release."""
        yield from self.acquire()
        try:
            yield duration_ns
        finally:
            self.release()
        return None


class Mailbox:
    """An unbounded FIFO message channel between simulated agents.

    ``put`` never blocks; ``get`` suspends the caller until an item is
    available.  Items are delivered in insertion order, one per getter,
    FIFO on both sides.
    """

    def __init__(self, sim: Simulator, name: str = "mailbox"):
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self.put_count = 0
        self.got_count = 0

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit ``item``; wakes one waiting getter if any."""
        self.put_count += 1
        if self._getters:
            self.got_count += 1
            self._getters.popleft().trigger(item)
        else:
            self._items.append(item)

    def try_get(self) -> Tuple[bool, Any]:
        """Non-blocking get: ``(True, item)`` or ``(False, None)``.

        This is the *polling* interface — the CNI host-side receive path
        polls its ADC queues with this instead of sleeping on an
        interrupt.
        """
        if self._items:
            self.got_count += 1
            return True, self._items.popleft()
        return False, None

    def get(self) -> Generator:
        """Coroutine: wait for and return the next item."""
        if self._items:
            self.got_count += 1
            item = self._items.popleft()
            return item
        ev = self.sim.event()
        self._getters.append(ev)
        item = yield ev
        return item

    def peek(self) -> Any:
        """Return (without removing) the head item, or None."""
        return self._items[0] if self._items else None


class Gate:
    """A re-armable broadcast condition ("something arrived").

    Unlike :class:`~repro.engine.simulator.Event`, a Gate can be notified
    many times; each notification wakes everything currently waiting.
    Used for interrupt lines and doorbells.
    """

    def __init__(self, sim: Simulator, name: str = "gate"):
        self.sim = sim
        self.name = name
        self._waiters: List[Event] = []
        self.notifications = 0

    def wait(self) -> Generator:
        """Coroutine: suspend until the next :meth:`notify`."""
        ev = self.sim.event()
        self._waiters.append(ev)
        value = yield ev
        return value

    def wait_upto(self, timeout_ns: float,
                  timeout_value: Any = None) -> Generator:
        """Coroutine: like :meth:`wait` but give up after ``timeout_ns``.

        On timeout the waiter is withdrawn from the gate (a later
        notification will not double-trigger it) and ``timeout_value``
        is returned — callers distinguish a wakeup from an expiry by a
        sentinel that a notify can never carry."""
        ev = self.sim.event()
        self._waiters.append(ev)
        timed_out = []

        def _expire():
            if ev.triggered:
                return
            try:
                self._waiters.remove(ev)
            except ValueError:
                return  # a same-instant notify already claimed the event
            timed_out.append(True)
            ev.trigger(timeout_value)

        handle = self.sim.schedule(timeout_ns, _expire)
        value = yield ev
        if not timed_out:
            handle.cancel()
        return value

    def notify(self, value: Any = None) -> int:
        """Wake all current waiters; returns how many were woken."""
        self.notifications += 1
        waiters, self._waiters = self._waiters, []
        for ev in waiters:
            ev.trigger(value)
        return len(waiters)
