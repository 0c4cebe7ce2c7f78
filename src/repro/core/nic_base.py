"""Shared machinery for the two simulated network interfaces.

Both boards (the CNI and the "standard networking interface" baseline of
Section 3) share the physical substrate: a transmit processor draining a
queue of send descriptors, SAR to/from the ATM fabric, and a receive
processor draining the node's inbound cell trains.  They differ in
exactly the three mechanisms the paper adds — Message Cache, Application
Device Channels with PATHFINDER demux, Application Interrupt Handlers —
which live in the subclasses.

Host-side interaction contract (implemented by :class:`HostHooks`, which
the runtime node provides):

* ``steal_host_time(ns, category)`` — asynchronous work executed on the
  host CPU (interrupt handlers, kernel dispatch, host protocol code);
  inflates the application thread's execution and is accounted as synch
  overhead.
* ``deliver_to_app(desc)`` — hand a receive descriptor to the host
  (ADC receive ring for the CNI, kernel queue for the standard NI) and
  wake a waiting thread.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional, Protocol

from ..engine import Category, Counters, Mailbox, Simulator
from ..memory import MemoryBus
from ..network import CellTrain, Network, Packet, PacketKind, Reassembler, Segmenter
from ..obs import MetricsScope, MetricTemplate, private_scope
from ..params import SimParams
from .adc import ReceiveDescriptor, TransmitDescriptor
from .detector import FailureDetector
from .reliability import ReliableTransport


class HostHooks(Protocol):
    """What the NIC needs from its host workstation (the runtime node)."""

    def steal_host_time(self, ns: float, category: Category) -> None:
        """Charge asynchronous host-CPU work (see module docstring)."""

    def deliver_to_app(self, desc: ReceiveDescriptor, via_interrupt: bool) -> None:
        """Deposit an inbound descriptor and wake the application."""


#: The DSM engine's packet entry point: returns a generator that performs
#: the protocol action (charging time via its platform adapter).
ProtocolSink = Callable[[Packet], Generator]


_METRICS = MetricTemplate(
    ("counter", "tx.packets_sent", "packets_sent"),
    ("counter", "rx.packets_received", "packets_received"),
    ("counter", "rx.packets_dropped", "packets_dropped"),
    ("counter", "rx.payload_bytes", "payload_bytes_received"),
    # Hybrid notification split (Section 2.1): descriptors the host
    # will notice by polling vs. arrivals that raised an interrupt.
    ("counter", "adc.poll_receives", None),
    ("counter", "adc.interrupt_receives", None),
)


class NetworkInterface:
    """Base class: transmit/receive processors and SAR."""

    def __init__(
        self,
        sim: Simulator,
        params: SimParams,
        node_id: int,
        network: Network,
        bus: MemoryBus,
        counters: Counters,
        hooks: HostHooks,
        metrics: Optional[MetricsScope] = None,
    ):
        self.sim = sim
        self.params = params
        self.node_id = node_id
        self.network = network
        self.bus = bus
        self.counters = counters
        self.hooks = hooks
        self.metrics = metrics if metrics is not None else private_scope()
        self.segmenter = Segmenter(params)
        self.reassembler = Reassembler(params)
        self.tx_queue: Mailbox = Mailbox(sim, f"nic{node_id}-tx")
        self.protocol_sink: Optional[ProtocolSink] = None
        self.packets_sent = 0
        self.packets_received = 0
        self.packets_dropped = 0
        self.payload_bytes_received = 0
        #: NI-resident reliable delivery (no-op when the parameter is
        #: off; always constructed so its counters exist).
        self.reliab = ReliableTransport(sim, params, self,
                                        metrics=self.metrics.scope("reliab"))
        #: NI-resident heartbeat failure detector (inert unless
        #: ``heartbeat_interval_ns`` is set; always constructed so its
        #: counters exist).
        self.detector = FailureDetector(
            sim, params, self, len(network.rx_queues),
            metrics=self.metrics.scope("detector"))
        #: Fail-stopped by a NodeCrash (see on_crash).
        self.crashed = False
        m = self.metrics.register(_METRICS, self)
        self._m_poll_rx = m["adc.poll_receives"]
        self._m_intr_rx = m["adc.interrupt_receives"]
        self._tx_proc = sim.spawn(self._transmit_loop(), f"nic{node_id}-txp")
        self._rx_proc = sim.spawn(self._receive_loop(), f"nic{node_id}-rxp")

    # -- wiring ---------------------------------------------------------------
    def set_protocol_sink(self, sink: ProtocolSink) -> None:
        """Attach the DSM engine's packet handler."""
        self.protocol_sink = sink

    # -- crash-stop -----------------------------------------------------------
    def on_crash(self) -> None:
        """Fail-stop this board (a :class:`~repro.faults.NodeCrash` hit).

        The reliable transport stops arming timers and cancels the
        pending ones (a dead node retransmits nothing), and the failure
        detector's tick is cancelled so the dead node falls silent and
        the event queue can drain.  The fabric drops the board's in-flight
        traffic separately (``ActiveFaultPlan.node_dead``)."""
        self.crashed = True
        self.reliab.fail_stop()
        self.detector.stop()

    # -- host-side send API -----------------------------------------------------
    def host_send(self, desc: TransmitDescriptor) -> Generator:
        """Generator run *by the application thread* to initiate a send.

        Subclasses charge the host-side cost of getting the descriptor to
        the board (user-level ADC stores vs. a kernel trap); the board
        then works asynchronously.  Returns the host-side cost in ns so
        the caller can attribute it.
        """
        raise NotImplementedError

    def host_send_cost_ns(self) -> float:
        """Host cycles burned per send on this interface, in ns."""
        raise NotImplementedError

    # -- board-side send API ------------------------------------------------------
    def board_send(self, packet: Packet) -> None:
        """Queue a board-originated packet (AIH replies) for transmit."""
        self.tx_queue.put(packet)

    # -- transmit processor ----------------------------------------------------------
    def _transmit_loop(self) -> Generator:
        while True:
            item = yield from self.tx_queue.get()
            if isinstance(item, TransmitDescriptor):
                packet = self._packet_from_descriptor(item)
                yield from self._transmit_one(packet)
                if item.completion is not None:
                    item.completion.trigger()
            else:
                yield from self._transmit_one(item)

    def _packet_from_descriptor(self, desc: TransmitDescriptor) -> Packet:
        if desc.kind is not None:
            kind = PacketKind(desc.kind)
        elif desc.handler_key:
            kind = (
                PacketKind.DSM_PAGE
                if desc.vaddr is not None
                else PacketKind.DSM_PROTOCOL
            )
        else:
            kind = PacketKind.DATA
        return Packet(
            kind=kind,
            src_node=self.node_id,
            dst_node=desc.dst_node,
            channel_id=desc.channel_id,
            handler_key=desc.handler_key,
            payload_bytes=desc.length,
            payload=desc.payload,
            cacheable=desc.cacheable,
            src_vaddr=desc.vaddr,
            reliable=desc.reliable,
        )

    def _transmit_one(self, packet: Packet) -> Generator:
        """Common transmit path; data staging is the subclass hook."""
        # Fixed per-packet work on the NI processor (header build, queue
        # manipulation).
        yield self.params.ni_cycles_ns(self.params.ni_packet_overhead_cycles)
        # Stage the payload into board memory (DMA unless cached).  A
        # reliable retransmission re-enters here with the same packet
        # object, so an unmodified buffer hits the Message Cache.
        staged_from_host = yield from self._stage_payload(packet)
        if packet.kind not in (PacketKind.ACK, PacketKind.HEARTBEAT):
            # NI-internal acks and heartbeats stay out of the paper's
            # hit-ratio metric.
            self._count_transmit(bool(staged_from_host))
        # Segmentation: per-cell work on the NI processor.
        if self.params.per_cell_transport and not self.params.unrestricted_cell_size:
            cells = self.segmenter.segment(packet)
            yield self.segmenter.sar_time_ns(len(cells))
            self._note_sent(packet)
            self.network.send_cells(cells, packet)
        else:
            train = self.segmenter.make_train(packet)
            yield self.segmenter.sar_time_ns(train.n_cells)
            self._note_sent(packet)
            self.network.send_train(train)
        return None

    def _note_sent(self, packet: Packet) -> None:
        """Count a departure and hand it to the reliable transport."""
        if packet.kind not in (PacketKind.ACK, PacketKind.HEARTBEAT):
            self.packets_sent += 1
            self.counters.inc("nic_packets_sent")
        self.reliab.on_transmit(packet)

    def _stage_payload(self, packet: Packet) -> Generator:
        """Move the outgoing payload from host memory to the board.

        The baseline always DMAs; the CNI consults the Message Cache.
        Returns True when a host-memory DMA was needed.
        """
        raise NotImplementedError

    def _count_transmit(self, staged_from_host: bool) -> None:
        """Maintain the paper's per-transmission hit-ratio counters.

        Section 3: "the ratio of the number of times a message to be
        transmitted is found in the Message Cache to the number of total
        message transmissions in the CNI ... cluster.  This term does
        not apply to the standard ... cluster" — hence the base class
        counts nothing; the CNI overrides this.
        """

    # -- receive processor --------------------------------------------------------------
    def _receive_loop(self) -> Generator:
        rx = self.network.rx_queues[self.node_id]
        while True:
            train = yield from rx.get()
            if isinstance(train, tuple):
                yield from self._receive_cell(*train)
                continue
            # Reassembly: per-cell work on the NI processor.
            yield self.reassembler.sar_time_ns(train.n_cells)
            yield self.params.ni_cycles_ns(self.params.ni_packet_overhead_cycles)
            packet = self.reassembler.accept_train(train)
            if packet is None:
                self.packets_dropped += 1
                self.counters.inc("nic_packets_dropped")
                continue
            yield from self._accept_packet(packet)

    def _receive_cell(self, cell, packet: Packet) -> Generator:
        """Per-cell transport: reassemble one fragment at a time.

        The classification hook lets the CNI drive its PATHFINDER
        fragment table exactly as the hardware does; the baseline just
        reassembles.
        """
        yield self.reassembler.sar_time_ns(1)
        extra = self._on_fragment(cell, packet)
        if extra:
            yield extra
        done = self.reassembler.accept_cell(cell, packet, now=self.sim.now)
        if done is None:
            if cell.eop:
                # AAL5 integrity failure at end-of-packet: whole packet lost
                self._end_fragmented(cell)
                self.packets_dropped += 1
                self.counters.inc("nic_packets_dropped")
            return None
        self._end_fragmented(cell)
        yield self.params.ni_cycles_ns(self.params.ni_packet_overhead_cycles)
        yield from self._accept_packet(done)
        return None

    def _accept_packet(self, packet: Packet) -> Generator:
        """Reliability layer between reassembly and dispatch: consume
        acks and heartbeats, ack tracked packets, suppress duplicates,
        resequence."""
        if packet.kind is PacketKind.HEARTBEAT:
            # Liveness cells die on the board, like acks.
            self.detector.on_heartbeat(packet.src_node)
            return
        if self.detector.enabled:
            # Any arrival proves the sender alive; the guard keeps the
            # detector-off hot path at one attribute test.
            self.detector.note_alive(packet.src_node)
        if packet.kind is PacketKind.ACK:
            self.reliab.on_ack(packet)
            return
        if self.reliab.tracks(packet) or packet.rel_seq is not None:
            # Ack every arrival — including duplicates, whose earlier
            # ack is exactly what may have been lost.
            self.board_send(self.reliab.make_ack(packet, self.node_id))
        ready, accepted = self.reliab.on_receive(packet)
        if not accepted:
            self._discard_receive(packet)
        for p in ready:
            self.packets_received += 1
            self.counters.inc("nic_packets_received")
            self.payload_bytes_received += p.payload_bytes
            yield from self._dispatch_receive(p)
        return None

    def _discard_receive(self, packet: Packet) -> None:
        """Teardown hook for a duplicate-suppressed packet (subclasses
        drop any per-packet routing state they staged)."""

    def _on_fragment(self, cell, packet: Packet) -> float:
        """Per-fragment classification hook; returns extra NI time."""
        return 0.0

    def _end_fragmented(self, cell) -> None:
        """Fragment bookkeeping teardown hook."""

    def _dispatch_receive(self, packet: Packet) -> Generator:
        """Demultiplex an inbound packet (the paths differ entirely)."""
        raise NotImplementedError

    # -- helpers ------------------------------------------------------------------
    def _deliver(self, desc: ReceiveDescriptor, via_interrupt: bool) -> None:
        """Hand a descriptor to the host, counting the notification mode."""
        (self._m_intr_rx if via_interrupt else self._m_poll_rx).inc()
        self.hooks.deliver_to_app(desc, via_interrupt=via_interrupt)

    def _receive_descriptor(self, packet: Packet) -> ReceiveDescriptor:
        return ReceiveDescriptor(
            src_node=packet.src_node,
            vaddr=packet.dst_vaddr,
            length=packet.payload_bytes,
            handler_key=packet.handler_key,
            payload=packet.payload,
        )
