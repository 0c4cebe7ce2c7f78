"""NIC-resident reliable transport for the ADC send path.

The paper's fabric is loss-free, so the CNI itself ships no end-to-end
recovery; the related NIC-offload work (NIC-based collective protocols
over Quadrics/Myrinet, RDMA transports over InfiniBand) layers reliable
delivery on the network interface processor, and that is the design
point modelled here: sequence numbers, acks, retransmission timers and
duplicate suppression all live on the 33 MHz NI processor, never
interrupting the host.

Sender side (:meth:`ReliableTransport.on_transmit`): the first
transmission of a tracked packet assigns it a per-connection sequence
number and arms a timeout; each timeout re-enqueues the *same packet
object* on the NIC transmit queue (so a CNI retransmit of an unmodified
buffer hits the Message Cache — the paper's transmit-caching win — and
pays no host re-DMA) and backs the timer off exponentially.  After
``reliab_max_attempts`` transmissions the transport raises
:class:`DeliveryFailed`, which propagates out of ``Simulator.run()`` as
a clean error instead of a silent deadlock.

Receiver side (:meth:`on_receive`): per-connection cumulative
``next_seq`` plus a resequencing buffer delivers exactly-once, in-order;
duplicates are dropped (and re-acked by the NIC, since their ack may be
the thing that was lost).

See docs/reliability.md for the full state machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..network import Packet, PacketKind
from ..obs import MetricsScope, MetricTemplate, private_scope
from ..params import SimParams

__all__ = ["DeliveryFailed", "ReliableTransport"]


class DeliveryFailed(RuntimeError):
    """A packet exhausted its retry budget without an acknowledgement.

    Raised on the simulated timer, so it surfaces from ``Cluster.run()``
    with the failing connection attached instead of hanging the run.
    """

    def __init__(self, packet: Packet, attempts: int):
        self.packet = packet
        self.attempts = attempts
        super().__init__(
            f"delivery failed: {packet.kind.name} packet "
            f"node{packet.src_node}->node{packet.dst_node} "
            f"chan={packet.channel_id} seq={packet.rel_seq} "
            f"unacked after {attempts} attempts"
        )

    def __reduce__(self):
        return type(self), (self.packet, self.attempts), self.__dict__


_METRICS = MetricTemplate(
    ("counter", "retransmits", "retransmits"),
    ("counter", "timeouts", "timeouts"),
    ("counter", "dup_drops", "dup_drops"),
    ("counter", "acks_sent", "acks_sent"),
    ("counter", "acks_received", "acks_received"),
    ("counter", "reorder_buffered", "reorder_buffered"),
    ("counter", "delivery_failures", "delivery_failures"),
    ("gauge", "outstanding_hwm", None),
)


@dataclass
class _PendingSend:
    """Sender-side state of one unacknowledged packet."""

    packet: Packet
    attempts: int = 1
    timer: Optional[object] = None  # EventHandle of the armed timeout
    acked: bool = False


@dataclass
class _RxStream:
    """Receiver-side state of one (src_node, channel) connection."""

    next_seq: int = 0
    buffer: Dict[int, Packet] = field(default_factory=dict)


class ReliableTransport:
    """Per-NIC reliable delivery engine (see module docstring).

    Instantiated unconditionally by every NIC so its counters always
    exist; with ``params.reliable_transport`` off every hook is a cheap
    no-op and the wire behaviour is bit-identical to the seed model.
    """

    def __init__(self, sim, params: SimParams, nic,
                 metrics: Optional[MetricsScope] = None):
        self.sim = sim
        self.params = params
        self.nic = nic
        self.enabled = params.reliable_transport
        #: Fail-stopped: tracks() nothing, timers never re-arm.
        self.dead = False
        #: Optional last-chance hook consulted when the retry budget is
        #: exhausted: ``sink(packet, attempts) -> bool``; True means the
        #: caller took ownership of recovery and no DeliveryFailed is
        #: raised (the messaging runtime's bounded eager-retry policy).
        self._failure_sink = None
        self.retransmits = 0
        self.timeouts = 0
        self.dup_drops = 0
        self.acks_sent = 0
        self.acks_received = 0
        self.reorder_buffered = 0
        self.delivery_failures = 0
        m = metrics if metrics is not None else private_scope()
        self._g_outstanding = m.register(_METRICS, self)["outstanding_hwm"]
        #: next sequence number per (dst_node, channel_id)
        self._next_seq: Dict[Tuple[int, int], int] = {}
        #: unacked sends keyed (dst_node, channel_id, seq)
        self._pending: Dict[Tuple[int, int, int], _PendingSend] = {}
        #: receive streams keyed (src_node, channel_id)
        self._streams: Dict[Tuple[int, int], _RxStream] = {}

    # -- predicates -----------------------------------------------------------
    def tracks(self, packet: Packet) -> bool:
        """Whether this packet participates in the reliable protocol."""
        return (self.enabled and not self.dead and packet.reliable
                and packet.kind is not PacketKind.ACK)

    def set_failure_sink(self, sink) -> None:
        """Attach the budget-exhaustion hook (see ``_failure_sink``)."""
        self._failure_sink = sink

    def fail_stop(self) -> None:
        """Crash-stop this endpoint: cancel every armed timer and stop
        tracking — a dead node neither retransmits nor raises
        :class:`DeliveryFailed` for traffic it will never ack."""
        self.dead = True
        for entry in self._pending.values():
            entry.acked = True
            if entry.timer is not None:
                entry.timer.cancel()
                entry.timer = None
        self._pending.clear()

    def outstanding(self) -> int:
        """Currently unacknowledged sends."""
        return len(self._pending)

    # -- sender side ----------------------------------------------------------
    def on_transmit(self, packet: Packet) -> None:
        """Called by the NIC for every packet leaving the transmit
        processor; assigns a sequence number and arms the timer on the
        first transmission, re-arms it on retransmissions."""
        if not self.tracks(packet):
            return
        conn = (packet.dst_node, packet.channel_id)
        if packet.rel_seq is None:
            seq = self._next_seq.get(conn, 0)
            self._next_seq[conn] = seq + 1
            packet.rel_seq = seq
            entry = _PendingSend(packet=packet)
            self._pending[conn + (seq,)] = entry
            self._g_outstanding.track_max(len(self._pending))
        else:
            entry = self._pending.get(conn + (packet.rel_seq,))
            if entry is None or entry.acked:
                # Acked while the retransmission sat in the tx queue.
                return
        self._arm_timer(entry)

    def _arm_timer(self, entry: _PendingSend) -> None:
        timeout = (self.params.reliab_timeout_ns
                   * self.params.reliab_backoff ** (entry.attempts - 1))
        entry.timer = self.sim.schedule(timeout,
                                        lambda: self._on_timeout(entry))

    def _on_timeout(self, entry: _PendingSend) -> None:
        if entry.acked or self.dead:
            return
        self.timeouts += 1
        if entry.attempts >= self.params.reliab_max_attempts:
            self.delivery_failures += 1
            if self._failure_sink is not None \
                    and self._failure_sink(entry.packet, entry.attempts):
                # The runtime took over recovery: reset the attempt
                # budget for its re-enqueue (same packet, same rel_seq;
                # on_transmit will find this entry and re-arm).
                entry.attempts = 1
                return
            raise DeliveryFailed(entry.packet, entry.attempts)
        entry.attempts += 1
        self.retransmits += 1
        # Re-enqueue the same packet object: an unmodified buffer hits
        # the Message Cache in _stage_payload (no host re-DMA).
        self.nic.tx_queue.put(entry.packet)

    def on_ack(self, ack: Packet) -> None:
        """Consume an inbound ACK packet (NI-processor work only)."""
        self.acks_received += 1
        entry = self._pending.pop(
            (ack.src_node, ack.channel_id, ack.rel_seq), None)
        if entry is None:
            return  # duplicate ack (a retransmitted data packet's re-ack)
        entry.acked = True
        if entry.timer is not None:
            entry.timer.cancel()
            entry.timer = None

    # -- receiver side --------------------------------------------------------
    def on_receive(self, packet: Packet) -> Tuple[List[Packet], bool]:
        """Sequence an inbound tracked packet.

        Returns ``(ready, accepted)``: the packets now deliverable in
        order, and whether this packet was new (False for a suppressed
        duplicate — the caller still acks it, but must discard it).
        """
        if packet.rel_seq is None or not self.enabled:
            return [packet], True
        stream = self._streams.setdefault(
            (packet.src_node, packet.channel_id), _RxStream())
        seq = packet.rel_seq
        if seq < stream.next_seq or seq in stream.buffer:
            self.dup_drops += 1
            return [], False
        stream.buffer[seq] = packet
        if seq != stream.next_seq:
            self.reorder_buffered += 1
        ready: List[Packet] = []
        while stream.next_seq in stream.buffer:
            ready.append(stream.buffer.pop(stream.next_seq))
            stream.next_seq += 1
        return ready, True

    def make_ack(self, packet: Packet, node_id: int) -> Packet:
        """Build the NI-generated acknowledgement for ``packet``."""
        self.acks_sent += 1
        return Packet(
            kind=PacketKind.ACK,
            src_node=node_id,
            dst_node=packet.src_node,
            channel_id=packet.channel_id,
            payload_bytes=0,
            reliable=False,
            rel_seq=packet.rel_seq,
        )
