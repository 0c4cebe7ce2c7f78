"""The messaging runtime's protocol engine: rendezvous + RDMA handlers.

:class:`MessagingEngine` is the board/host-side half of the MPI-style
messaging layer (docs/runtime.md); :class:`MessagingService` in
:mod:`repro.runtime.messaging` is the application-side half.  The split
mirrors the DSM and collective subsystems: the service runs in the
application thread and issues sends; the engine owns the inbound
RUNTIME-packet handlers, which on a CNI with AIH support execute on the
NI processor (PATHFINDER classifies ``PacketKind.RUNTIME`` into the
handler keyed by :class:`RtMsgType`) and on the standard interface run
on the host behind an interrupt.

Two protocol families live here:

* **Rendezvous** (large sends, above ``SimParams.rendezvous_threshold``):
  the sender's RTS is answered by an *early CTS* — the engine allocates
  a landing buffer and clears the sender to stream immediately, without
  waiting for a posted receive.  Running the responder as an AIH is what
  makes this safe: the library, not the application, owns the landing
  buffer, so an all-to-all of rendezvous sends cannot deadlock on
  receive order.  The last data chunk hands the assembled message to the
  ordinary receive inbox, so ``recv()`` is protocol-agnostic.
* **RDMA-style one-sided ops**: ``remote_read``/``remote_write`` address
  buffers the target application *exposed* (registered windows).  A read
  reply transmits straight from the target's memory with the cacheable
  bit set, so repeated reads of the same window are Message-Cache
  transmit hits on a CNI — the remote-cache effect the RDCA work
  measures — while the DMA-bypass-free standard interface re-DMAs every
  time.

Retransmission rides the reliable transport exactly as DSM and
collective traffic does; a lost cell under a fault plan is retried by
the NIC with no engine involvement.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Any, Dict, Generator, List, Optional, Set, Tuple

from ..engine import Category, SimulationError
from ..network import Packet, PacketKind
from ..obs import MetricTemplate
from ..params import SimParams
from ..dsm.messages import MSG_BASE_BYTES
from .errors import PeerDead, RuntimeTimeout

__all__ = [
    "RT_HANDLER_CODE_BYTES",
    "RtMsgType",
    "RtsMsg",
    "CtsMsg",
    "RdvData",
    "ReadReq",
    "ReadReply",
    "WriteReq",
    "WriteAck",
    "MessagingEngine",
]

#: AIH object-code footprint of the messaging runtime's handlers
#: (rendezvous responder + RDMA window logic), resident alongside the
#: DSM protocol's 48 KB and the collectives' 16 KB.
RT_HANDLER_CODE_BYTES = 28 * 1024

#: Wake value of a deadline expiry; a protocol completion can never
#: carry it, so the woken waiter knows its timer — not a reply — fired.
_TIMEOUT = object()


class RtMsgType(IntEnum):
    """Messaging-runtime protocol messages; the value doubles as the
    PATHFINDER handler key.  Disjoint from the DSM keys (0x10-0x41) and
    the collective keys (0x50-0x51): the runtime owns 0x60+."""

    RTS = 0x60             # sender -> receiver: request to send (nbytes)
    CTS = 0x61             # receiver -> sender: landing buffer ready
    RDV_DATA = 0x62        # sender -> receiver: one rendezvous chunk
    RDMA_READ_REQ = 0x63   # requester -> target: read a window range
    RDMA_READ_REPLY = 0x64 # target -> requester: the window data
    RDMA_WRITE = 0x65      # requester -> target: data into a window
    RDMA_WRITE_ACK = 0x66  # target -> requester: placement confirmed


@dataclass
class RtsMsg:
    """Request to send: announces a rendezvous message of ``nbytes``."""

    op_id: int
    src: int
    nbytes: int

    @property
    def wire_bytes(self) -> int:
        return MSG_BASE_BYTES


@dataclass
class CtsMsg:
    """Clear to send: the receiver's landing buffer is allocated."""

    op_id: int

    @property
    def wire_bytes(self) -> int:
        return MSG_BASE_BYTES


@dataclass
class RdvData:
    """One streamed rendezvous chunk (the packet's ``payload_bytes``
    carries the chunk length; this rides as the payload object)."""

    op_id: int
    offset: int
    last: bool
    app_payload: Any = None  # the application object, on the last chunk


@dataclass
class ReadReq:
    """One-sided read request against a registered remote window."""

    op_id: int
    src: int
    raddr: int
    nbytes: int

    @property
    def wire_bytes(self) -> int:
        return MSG_BASE_BYTES


@dataclass
class ReadReply:
    """The window data coming back (``payload_bytes`` = read size)."""

    op_id: int


@dataclass
class WriteReq:
    """One-sided write: the data chunk rides in this packet
    (``payload_bytes`` = write size)."""

    op_id: int
    src: int
    raddr: int
    nbytes: int


@dataclass
class WriteAck:
    """Write placement confirmed at the target."""

    op_id: int

    @property
    def wire_bytes(self) -> int:
        return MSG_BASE_BYTES


@dataclass
class _Waiter:
    """A blocked application thread's rendezvous (same shape as the
    collective engine's)."""

    event: Any
    outstanding: int = 1


@dataclass
class _RdvIn:
    """Receiver-side state of one in-flight rendezvous message."""

    src: int
    base_vaddr: int
    nbytes: int
    received: int = 0
    #: Whether the chunk flagged ``last`` has arrived, and its payload.
    #: Adaptive routing may deliver it before an earlier chunk, so the
    #: stream completes when every byte is in, not when ``last`` lands.
    last_seen: bool = False
    app_payload: Any = None


_METRICS = MetricTemplate(
    *(("counter", name, None) for name in (
        "eager_sends", "rendezvous_sends", "remote_reads", "remote_writes",
        "bytes_sent", "rdma_bytes", "rts_sent", "cts_sent", "rdv_chunks",
        "nic_steps", "host_steps", "op_timeouts", "peer_dead",
        "eager_retries")),
    *(("histogram", name, None) for name in (
        "eager_ns", "rendezvous_ns", "remote_read_ns", "remote_write_ns",
        "msg_rtt_ns")),
)


class MessagingEngine:
    """Per-node protocol engine for ``PacketKind.RUNTIME`` packets."""

    def __init__(self, node, nprocs: int):
        self.node = node
        self.sim = node.sim
        self.params: SimParams = node.params
        self.me: int = node.node_id
        self.nprocs = nprocs
        #: Handlers execute on the NI processor when the platform has
        #: AIH support; otherwise on the host CPU (standard interface,
        #: or a CNI with AIH ablated away).
        self.resident = node.interface == "cni" and node.params.use_aih

        #: Registered one-sided windows, (vaddr, nbytes).
        self.windows: List[Tuple[int, int]] = []
        #: Requester-side op-id sequence (locally unique suffices: every
        #: reply routes back to the node that minted the id).
        self._next_op = 0
        #: Blocked application threads, keyed ("cts"|"read"|"wack", op_id).
        self._waiters: Dict[Tuple[str, int], _Waiter] = {}
        #: Early completions (a reply that lands before the app blocks).
        self._pending: Dict[Tuple[str, int], Any] = {}
        #: Waits that expired; their late replies must be dropped, not
        #: parked in _pending for a future op to collide with.
        self._abandoned: Set[Tuple[str, int]] = set()
        #: Inbound rendezvous streams, keyed (src_node, op_id).
        self._rdv_in: Dict[Tuple[int, int], _RdvIn] = {}
        #: Eager-retry rounds already granted, keyed by packet_id.
        self._retry_rounds: Dict[int, int] = {}

        m = node.metrics.scope("runtime").register(_METRICS)
        self._m_eager = m["eager_sends"]
        self._m_rdv = m["rendezvous_sends"]
        self._m_reads = m["remote_reads"]
        self._m_writes = m["remote_writes"]
        self._m_bytes = m["bytes_sent"]
        self._m_rdma_bytes = m["rdma_bytes"]
        self._m_rts = m["rts_sent"]
        self._m_cts = m["cts_sent"]
        self._m_chunks = m["rdv_chunks"]
        self._m_nic_steps = m["nic_steps"]
        self._m_host_steps = m["host_steps"]
        self._m_op_timeouts = m["op_timeouts"]
        self._m_peer_dead = m["peer_dead"]
        self._m_eager_retries = m["eager_retries"]
        self._m_eager_ns = m["eager_ns"]
        self._m_rdv_ns = m["rendezvous_ns"]
        self._m_read_ns = m["remote_read_ns"]
        self._m_write_ns = m["remote_write_ns"]
        self._m_rtt_ns = m["msg_rtt_ns"]

    # ------------------------------------------------------------ app-side --
    def new_op_id(self) -> int:
        op = self._next_op
        self._next_op += 1
        return op

    def register_window(self, vaddr: int, nbytes: int) -> None:
        """Expose ``[vaddr, vaddr+nbytes)`` to one-sided remote access."""
        if nbytes <= 0:
            raise ValueError("empty window")
        self.windows.append((vaddr, nbytes))

    def observe_rtt(self, ns: float) -> None:
        """Application-reported round-trip sample (pingpong-style)."""
        self._m_rtt_ns.observe(ns)

    # ------------------------------------------------------ packet handler --
    def handle_packet(self, packet: Packet, on_board: bool) -> Generator:
        """Inbound RUNTIME packet (the engine's protocol sink)."""
        yield self._charge_rx(on_board)
        mt = RtMsgType(packet.handler_key)
        if mt is RtMsgType.RTS:
            yield from self._on_rts(packet)
        elif mt is RtMsgType.CTS:
            self._complete("cts", packet.payload.op_id, None)
        elif mt is RtMsgType.RDV_DATA:
            yield from self._on_rdv_data(packet, on_board)
        elif mt is RtMsgType.RDMA_READ_REQ:
            yield from self._on_read_req(packet)
        elif mt is RtMsgType.RDMA_READ_REPLY:
            yield from self._on_read_reply(packet)
        elif mt is RtMsgType.RDMA_WRITE:
            yield from self._on_write(packet)
        elif mt is RtMsgType.RDMA_WRITE_ACK:
            self._complete("wack", packet.payload.op_id, None)
        else:  # pragma: no cover - RtMsgType() above already raises
            raise SimulationError(f"unhandled runtime message {mt!r}")
        return None

    def _on_rts(self, packet: Packet) -> Generator:
        """Early-CTS responder: allocate the landing buffer and clear the
        sender immediately — no posted receive required."""
        rts: RtsMsg = packet.payload
        key = (rts.src, rts.op_id)
        if key in self._rdv_in:
            raise SimulationError(
                f"node {self.me}: duplicate rendezvous stream {key}")
        base = self.node.alloc_private_buffer(rts.nbytes)
        self._rdv_in[key] = _RdvIn(src=rts.src, base_vaddr=base,
                                   nbytes=rts.nbytes)
        self._m_cts.inc()
        self._board_send(rts.src, RtMsgType.CTS, CtsMsg(rts.op_id),
                         MSG_BASE_BYTES)
        return None
        yield  # pragma: no cover - keeps this a generator

    def _on_rdv_data(self, packet: Packet, on_board: bool) -> Generator:
        msg: RdvData = packet.payload
        key = (packet.src_node, msg.op_id)
        st = self._rdv_in.get(key)
        if st is None:
            raise SimulationError(
                f"node {self.me}: rendezvous data for unknown stream {key}")
        from ..core.cni_nic import PIO_THRESHOLD_BYTES

        if packet.payload_bytes > PIO_THRESHOLD_BYTES:
            yield from self.node.bus.dma(packet.payload_bytes)
        self._mc_receive_insert(st.base_vaddr + msg.offset,
                                packet.payload_bytes)
        st.received += packet.payload_bytes
        if msg.last:
            if st.last_seen:
                raise SimulationError(
                    f"node {self.me}: rendezvous stream {key} closed twice")
            st.last_seen = True
            st.app_payload = msg.app_payload
        if st.received > st.nbytes:
            raise SimulationError(
                f"node {self.me}: rendezvous stream {key} overran at "
                f"{st.received}/{st.nbytes} bytes")
        if not st.last_seen or st.received < st.nbytes:
            return None
        del self._rdv_in[key]
        from ..core import ReceiveDescriptor

        self.node.deliver_to_app(
            ReceiveDescriptor(src_node=st.src, vaddr=st.base_vaddr,
                              length=st.nbytes, handler_key=0,
                              payload=st.app_payload),
            via_interrupt=not on_board)
        return None

    def _on_read_req(self, packet: Packet) -> Generator:
        req: ReadReq = packet.payload
        self._check_window(req.raddr, req.nbytes, "remote_read",
                           packet.src_node)
        # Reply straight out of the target's window: src_vaddr drives the
        # transmit path's Message-Cache lookup, cacheable enters it — the
        # first read DMAs and caches, repeats transmit from the board.
        self.node.nic.board_send(
            Packet(
                kind=PacketKind.RUNTIME,
                src_node=self.me,
                dst_node=packet.src_node,
                channel_id=self.node.dsm_channel_id,
                handler_key=int(RtMsgType.RDMA_READ_REPLY),
                payload_bytes=req.nbytes,
                payload=ReadReply(req.op_id),
                cacheable=True,
                src_vaddr=req.raddr,
            )
        )
        self._m_bytes.inc(req.nbytes)
        return None
        yield  # pragma: no cover - keeps this a generator

    def _on_read_reply(self, packet: Packet) -> Generator:
        from ..core.cni_nic import PIO_THRESHOLD_BYTES

        if packet.payload_bytes > PIO_THRESHOLD_BYTES:
            yield from self.node.bus.dma(packet.payload_bytes)
        self._complete("read", packet.payload.op_id, packet.payload_bytes)
        return None

    def _on_write(self, packet: Packet) -> Generator:
        req: WriteReq = packet.payload
        self._check_window(req.raddr, req.nbytes, "remote_write", req.src)
        from ..core.cni_nic import PIO_THRESHOLD_BYTES

        if packet.payload_bytes > PIO_THRESHOLD_BYTES:
            yield from self.node.bus.dma(packet.payload_bytes)
        self._mc_receive_insert(req.raddr, req.nbytes)
        self._board_send(req.src, RtMsgType.RDMA_WRITE_ACK,
                         WriteAck(req.op_id), MSG_BASE_BYTES)
        return None

    # ------------------------------------------------------------- helpers --
    def _check_window(self, raddr: int, nbytes: int, op: str,
                      requester: int) -> None:
        for base, size in self.windows:
            if base <= raddr and raddr + nbytes <= base + size:
                return
        raise SimulationError(
            f"node {self.me}: {op} from node {requester} outside any "
            f"registered window ({raddr:#x}+{nbytes}; "
            f"{len(self.windows)} windows exposed)")

    def _mc_receive_insert(self, vaddr: int, nbytes: int) -> None:
        """Receive caching for runtime data landing in private buffers
        (mirrors Node.mc_receive_insert, which is DSM-page-addressed)."""
        if not (self.params.use_message_cache and self.params.receive_caching):
            return
        mc = getattr(self.node.nic, "message_cache", None)
        if mc is None or nbytes <= 0:
            return
        page = self.params.page_size_bytes
        for vpage in range(vaddr // page, (vaddr + nbytes - 1) // page + 1):
            mc.insert(vpage)

    def _board_send(self, dst: int, mt: RtMsgType, msg,
                    wire_bytes: int) -> None:
        self.node.nic.board_send(
            Packet(
                kind=PacketKind.RUNTIME,
                src_node=self.me,
                dst_node=dst,
                channel_id=self.node.dsm_channel_id,
                handler_key=int(mt),
                payload_bytes=wire_bytes,
                payload=msg,
            )
        )
        self._m_bytes.inc(wire_bytes)

    def _charge_rx(self, on_board: bool) -> float:
        """Cost of one inbound protocol step on this node's platform."""
        p = self.params
        if on_board and self.resident:
            self._m_nic_steps.inc()
            return p.ni_cycles_ns(p.ni_aih_protocol_cycles)
        self._m_host_steps.inc()
        ns = p.cpu_cycles_ns(p.host_protocol_cycles)
        if on_board:
            # CNI without AIH support: the board handler is a trampoline
            # that bounces the packet to the host.
            ns += p.interrupt_latency_ns + p.cpu_cycles_ns(
                p.kernel_trap_cycles)
        self.node.steal_host_time(ns, Category.SYNCH_OVERHEAD)
        return ns

    # ------------------------------------------------------ wait machinery --
    def register_wait(self, kind: str, op_id: int) -> _Waiter:
        key = (kind, op_id)
        if key in self._waiters:
            raise SimulationError(
                f"node {self.me}: duplicate runtime wait on {key}")
        w = _Waiter(event=self.sim.event())
        self._waiters[key] = w
        return w

    def wait(self, kind: str, op_id: int, w: _Waiter,
             deadline_ns: Optional[float] = None,
             peer: Optional[int] = None) -> Generator:
        """Block the app thread until the matching reply; charge delay +
        wake overhead.  Handles the reply-before-block race.

        ``deadline_ns`` bounds the block (None takes
        ``SimParams.op_deadline_ns``; 0 waits forever — the seed
        behaviour).  On expiry the wait raises a typed
        :class:`~repro.runtime.RuntimeTimeout`, sharpened to
        :class:`~repro.runtime.PeerDead` when the failure detector
        already suspects ``peer``; the late reply, if it ever arrives,
        is dropped."""
        key = (kind, op_id)
        if key in self._pending:
            del self._waiters[key]
            return self._pending.pop(key)
        deadline = (self.params.op_deadline_ns if deadline_ns is None
                    else deadline_ns)
        timer = None
        if deadline > 0:
            timer = self.sim.schedule(deadline, lambda: self._expire(key))
        t0 = self.sim.now
        self.node.app_blocked = True
        try:
            value = yield w.event
        finally:
            self.node.app_blocked = False
        if timer is not None and value is not _TIMEOUT:
            timer.cancel()
        self.node.account_delay(self.sim.now - t0)
        wake_ns = self.node.nic.rx_wake_overhead_ns()
        yield wake_ns
        self.node.account_overhead(wake_ns)
        if value is _TIMEOUT:
            self._m_op_timeouts.inc()
            if peer is not None and self.node.nic.detector.is_suspected(peer):
                self._m_peer_dead.inc()
                raise PeerDead(kind, peer, deadline)
            raise RuntimeTimeout(kind, peer, deadline)
        return value

    def _expire(self, key: Tuple[str, int]) -> None:
        """Deadline timer: abandon the wait and wake the blocked thread
        with the timeout sentinel (no-op if the reply won the race)."""
        w = self._waiters.pop(key, None)
        if w is None:
            return
        self._abandoned.add(key)
        w.event.trigger(_TIMEOUT)

    def _complete(self, kind: str, op_id: int, value) -> None:
        key = (kind, op_id)
        if key in self._abandoned:
            # The waiter gave up at its deadline; drop the late reply.
            self._abandoned.discard(key)
            return
        w = self._waiters.get(key)
        if w is None:
            self._pending[key] = value
            return
        del self._waiters[key]
        w.event.trigger(value)

    # ------------------------------------------------- failure integration --
    def on_delivery_failed(self, packet: Packet, attempts: int) -> bool:
        """Reliable-transport failure sink: bounded eager-send recovery.

        Grants up to ``SimParams.runtime_send_retries`` extra retry
        rounds to an eager DATA packet whose transport budget ran dry,
        re-enqueuing the *same* packet object after a backoff (same
        rel_seq, so the receiver's duplicate suppression stays correct
        and a CNI retransmit still hits the Message Cache).  Returns
        False — let :class:`~repro.core.DeliveryFailed` surface — for
        anything else."""
        budget = self.params.runtime_send_retries
        if budget <= 0 or packet.kind is not PacketKind.DATA:
            return False
        rounds = self._retry_rounds.get(packet.packet_id, 0)
        if rounds >= budget:
            return False
        self._retry_rounds[packet.packet_id] = rounds + 1
        self._m_eager_retries.inc()
        backoff = self.params.reliab_timeout_ns * (rounds + 1)
        self.sim.schedule(backoff,
                          lambda: self.node.nic.tx_queue.put(packet))
        return True

    def outstanding_waits(self) -> List[str]:
        """Stuck-report probe: every wait this engine still holds open."""
        waits = [
            f"node{self.me}: runtime {kind} wait (op {op_id})"
            for kind, op_id in sorted(self._waiters)
        ]
        waits.extend(
            f"node{self.me}: inbound rendezvous from node{src} "
            f"(op {op_id}, {st.received}/{st.nbytes} bytes)"
            for (src, op_id), st in sorted(self._rdv_in.items())
        )
        return waits
