"""Typed failure exceptions of the messaging runtime.

The crash-stop fault-tolerance contract (docs/reliability.md): a
blocking runtime operation either completes, or raises one of these —
it never hangs.  ``RuntimeTimeout`` is the generic deadline expiry;
``PeerDead`` is its subclass raised when the failure detector already
suspects the peer the operation was waiting on, so ``except
RuntimeTimeout`` catches both while ``except PeerDead`` isolates the
diagnosed crash.
"""

from __future__ import annotations

__all__ = ["MessagingError", "PeerDead", "RuntimeTimeout"]


class MessagingError(RuntimeError):
    """Base of every typed messaging-runtime failure."""


class RuntimeTimeout(MessagingError):
    """A blocking runtime operation passed its deadline.

    Attributes: ``op`` (the wait kind, e.g. ``"cts"``/``"recv"``),
    ``peer`` (the rank waited on, or ``None``), ``deadline_ns``.
    """

    def __init__(self, op: str, peer=None, deadline_ns: float = 0.0):
        self.op = op
        self.peer = peer
        self.deadline_ns = deadline_ns
        where = f" on rank {peer}" if peer is not None else ""
        super().__init__(
            f"{op} deadline expired after {deadline_ns:.0f} ns{where}")

    def __reduce__(self):
        # Rebuild from the constructor arguments, not from ``args`` (the
        # formatted message), so the error crosses process boundaries.
        return (type(self), (self.op, self.peer, self.deadline_ns),
                self.__dict__)


class PeerDead(RuntimeTimeout):
    """A deadline expired *and* the failure detector suspects the peer —
    the operation was waiting on a crashed (or crash-suspected) rank."""

    def __init__(self, op: str, peer, deadline_ns: float = 0.0):
        RuntimeTimeout.__init__(self, op, peer, deadline_ns)
        self.args = (
            f"{op} waiting on suspected-dead rank {peer} "
            f"(deadline {deadline_ns:.0f} ns)",)
