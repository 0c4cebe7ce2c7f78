"""The CNI board: ADC + PATHFINDER + Message Cache + AIH, composed.

Send path (Section 2.1/2.2): the application stores a descriptor into
its Application Device Channel (a handful of user-level stores, no
kernel); the transmit processor consults the buffer map and transmits
straight from a cached buffer on a hit, DMAing from host memory only on
a miss (inserting the buffer if the cacheable bit is set).

Receive path: the PATHFINDER classifies the packet in hardware; protocol
packets transfer control into the matching Application Interrupt Handler
on the NI processor (no host interrupt); application data is DMAed to
the posted receive buffer and announced on the ADC receive ring, which
the host learns about by *polling* when traffic is expected and by an
interrupt otherwise (the hybrid scheme of Section 2.1).
"""

from __future__ import annotations

from typing import Generator, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..engine import Category, Counters, Simulator
from ..memory import BoardTLB, MemoryBus
from ..network import Network, Packet, PacketKind
from ..obs import MetricsScope, MetricTemplate, private_scope
from ..params import SimParams
from .adc import ChannelManager, DeviceChannel, TransmitDescriptor
from .aih import HandlerFn, HandlerRegistry
from .message_cache import MessageCache
from .nic_base import HostHooks, NetworkInterface
from .pathfinder import Pathfinder, Pattern, PatternElement, PatternSet

#: Classification targets produced by the patterns we program.
AIH_TARGET = "aih"
CHANNEL_TARGET = "chan"

#: Payloads at or below this many bytes travel inside the descriptor /
#: protocol message itself (programmed I/O), with no DMA staging.
PIO_THRESHOLD_BYTES = 64

#: Packet kinds that activate a DSM protocol handler: both
#: protocol-control and page-carrying packets (Section 2.3).
PROTOCOL_KINDS = (PacketKind.DSM_PROTOCOL, PacketKind.DSM_PAGE)


def _kind_and_field(kind: PacketKind, offset: int, value: int,
                    target) -> Pattern:
    """Header byte 0 == ``kind`` and the 2-byte field at ``offset`` ==
    ``value``."""
    return Pattern(
        elements=(
            PatternElement(offset=0, length=1, mask=0xFF, value=int(kind)),
            PatternElement(offset=offset, length=2, mask=0xFFFF, value=value),
        ),
        target=target,
    )


def _channel_pattern(channel_id: int) -> Pattern:
    """Demux DATA packets (header bytes 6-7: channel id) to a channel."""
    return _kind_and_field(PacketKind.DATA, 6, channel_id,
                           (CHANNEL_TARGET, channel_id))


def _handler_patterns(key: int, kinds: Iterable[PacketKind]) -> List[Pattern]:
    """Activate handler ``key`` (header bytes 8-9) on each of ``kinds``."""
    return [_kind_and_field(kind, 8, key, (AIH_TARGET, key))
            for kind in kinds]


def connection_patterns(
    channel_id: int,
    handler_kinds: Iterable[Tuple[int, Sequence[PacketKind]]],
) -> PatternSet:
    """The PATHFINDER program of a parallel application's connection:
    DATA demux for ``channel_id``, then the activation patterns of every
    ``(handler key, packet kinds)`` pair, in priority order.  Every
    board of the application runs the same program, so one set serves
    the whole cluster (:meth:`CNIInterface.open_connection`)."""
    patterns = [_channel_pattern(channel_id)]
    for key, kinds in handler_kinds:
        patterns.extend(_handler_patterns(key, kinds))
    return PatternSet(patterns)


def _channels_max(attr: str):
    return lambda nic: max(
        (getattr(ch, attr).depth_hwm
         for ch in nic.channel_manager.channels.values()), default=0)


def _channels_sum(fn):
    return lambda nic: sum(
        fn(ch) for ch in nic.channel_manager.channels.values())


# Aggregates over open channels: worst-case ring depths and the
# application's successful receive polls.
_ADC_METRICS = MetricTemplate(
    ("gauge", "tx_depth_hwm", _channels_max("transmit")),
    ("gauge", "rx_depth_hwm", _channels_max("receive")),
    ("gauge", "free_depth_hwm", _channels_max("free")),
    ("counter", "ring_full_rejections", _channels_sum(
        lambda ch: ch.transmit.full_rejections + ch.receive.full_rejections
        + ch.free.full_rejections)),
    ("counter", "protection_faults",
     _channels_sum(lambda ch: ch.protection_faults)),
    ("counter", "ring_polls", _channels_sum(lambda ch: ch.poll_receives)),
)


class CNIInterface(NetworkInterface):
    """The cluster network interface of the paper."""

    def __init__(
        self,
        sim: Simulator,
        params: SimParams,
        node_id: int,
        network: Network,
        bus: MemoryBus,
        counters: Counters,
        hooks: HostHooks,
        tlb: BoardTLB,
        metrics: Optional[MetricsScope] = None,
    ):
        self.tlb = tlb
        m = metrics if metrics is not None else private_scope()
        self.message_cache = MessageCache(params, tlb, counters,
                                          metrics=m.scope("mcache"))
        self.pathfinder = Pathfinder(metrics=m.scope("pathfinder"))
        self.handlers = HandlerRegistry(params, metrics=m.scope("aih"))
        self.channel_manager = ChannelManager(sim)
        #: per-cell mode: packet_id -> classification of its first cell
        self._frag_targets = {}
        super().__init__(sim, params, node_id, network, bus, counters, hooks,
                         metrics=m)
        m.scope("adc").register(_ADC_METRICS, self)
        if params.snoop_enabled:
            bus.add_snooper(self._snoop)
        else:
            bus.add_snooper(self._snoop_disabled)

    # -- setup -------------------------------------------------------------------
    def open_channel(self, owner_app: int,
                     channel_id: Optional[int] = None) -> DeviceChannel:
        """Kernel connection setup: allocate a queue triplet and program
        the PATHFINDER to demux DATA packets for it.  ``channel_id`` is
        agreed between the connection's endpoints (the sender stamps it
        into the header; this board's PATHFINDER matches it)."""
        ch = self.channel_manager.open_channel(owner_app, channel_id=channel_id)
        self.pathfinder.install(_channel_pattern(ch.channel_id))
        return ch

    def open_connection(
        self, owner_app: int, channel_id: int,
        handlers: Iterable[Tuple[int, HandlerFn, int]],
        patterns: PatternSet,
    ) -> DeviceChannel:
        """Kernel connection setup in one step: open channel
        ``channel_id``, swap in every ``(key, fn, code_size)`` AIH of
        ``handlers`` and program ``patterns`` — the application's
        :func:`connection_patterns`, built once and shared by every
        board.  Equivalent to :meth:`open_channel` followed by one
        handler install per key."""
        ch = self.channel_manager.open_channel(owner_app, channel_id=channel_id)
        self.handlers.install_many(handlers)
        self.pathfinder.install_set(patterns)
        return ch

    def install_protocol_handler(self, key: int, fn, code_size: int) -> float:
        """Swap AIH object code in and program its activation patterns.

        Both protocol-control and page-carrying packets with this handler
        key activate the handler (Section 2.3: the PATHFINDER 'programs
        ... to activate the object code on a match of a specified
        pattern').  Returns the swap-in time (connection-setup cost).
        """
        swap_ns = self.handlers.install(key, fn, code_size)
        for pattern in _handler_patterns(key, PROTOCOL_KINDS):
            self.pathfinder.install(pattern)
        return swap_ns

    # -- host send path ------------------------------------------------------------
    def host_send_cost_ns(self) -> float:
        """User-level enqueue: a few stores onto the ADC transmit ring."""
        return self.params.cpu_cycles_ns(self.params.adc_enqueue_cycles)

    def host_send(self, desc: TransmitDescriptor) -> Generator:
        """Application-thread send: protection-checked ring enqueue."""
        ch = self.channel_manager.get(desc.channel_id)
        ch.post_transmit(desc)
        yield self.host_send_cost_ns()
        item = ch.transmit.pop()
        assert item is not None
        self.tx_queue.put(item)
        return None

    # -- transmit staging ------------------------------------------------------------
    def _stage_payload(self, packet: Packet) -> Generator:
        """Message-Cache transmit caching (Section 2.2, Transmit Caching).

        Returns True when any host-memory DMA was needed — i.e. the
        message was *not* found on the board.
        """
        if packet.src_vaddr is None or packet.payload_bytes <= PIO_THRESHOLD_BYTES:
            # Immediate data rides in the descriptor (PIO) or the packet
            # was built by board-resident protocol code: on-board source.
            return False
        page_size = self.params.page_size_bytes
        first = packet.src_vaddr // page_size
        last = (packet.src_vaddr + packet.payload_bytes - 1) // page_size
        mc = self.message_cache
        use_mc = self.params.use_message_cache and self.params.transmit_caching
        staged = False
        for vpage in range(first, last + 1):
            if use_mc and mc.lookup_transmit(vpage):
                continue  # transmit straight from the cached buffer
            staged = True
            lo = max(packet.src_vaddr, vpage * page_size)
            hi = min(packet.src_vaddr + packet.payload_bytes,
                     (vpage + 1) * page_size)
            yield from self.bus.dma(hi - lo)
            self.counters.inc("mc_transmit_dma_bytes", hi - lo)
            if use_mc and packet.cacheable:
                mc.insert(vpage)
        return staged

    def _count_transmit(self, staged_from_host: bool) -> None:
        """Section 3's network cache hit ratio, per message transmission:
        a transmission whose bytes were already on the board (cached
        buffer hit, or a board-built protocol message) is a hit; one
        that had to DMA from host memory is a miss."""
        self.counters.inc("mc_transmit_lookups")
        if not staged_from_host:
            self.counters.inc("mc_transmit_hits")

    # -- per-cell fragment handling (per_cell_transport mode) ----------------
    def _on_fragment(self, cell, packet: Packet) -> float:
        """PATHFINDER fragment routing (Section 2.1: 'the ability to
        handle fragmented packets').  The first cell carries the header
        and is classified; the result is remembered in the fragment
        table so later cells route without a header."""
        if packet.kind is PacketKind.ACK:
            # Transport-internal: consumed by the NI before demux, so it
            # never enters the PATHFINDER fragment table.
            return 0.0
        if cell.seq == 0:
            target = self.pathfinder.classify(packet.header_bytes())
            self._frag_targets[packet.packet_id] = target
            if target is not None:
                self.pathfinder.note_fragmented_packet(
                    cell.vci, packet.packet_id, target)
            return self.params.pathfinder_classify_ns
        self.pathfinder.classify_fragment(cell.vci, packet.packet_id)
        return 0.0

    def _end_fragmented(self, cell) -> None:
        self.pathfinder.end_of_packet(cell.vci, cell.packet_id)

    def _discard_receive(self, packet: Packet) -> None:
        """A duplicate never reaches dispatch; drop its staged
        classification so the fragment-target map cannot leak."""
        self._frag_targets.pop(packet.packet_id, None)

    # -- receive dispatch ---------------------------------------------------------------
    def _dispatch_receive(self, packet: Packet) -> Generator:
        if packet.packet_id in self._frag_targets:
            # per-cell mode: the first fragment already classified
            target = self._frag_targets.pop(packet.packet_id)
        else:
            yield self.params.pathfinder_classify_ns
            target = self.pathfinder.classify(packet.header_bytes())
        if target is None:
            self.packets_dropped += 1
            self.counters.inc("nic_classify_misses")
            return
        kind, key = target
        if kind == AIH_TARGET:
            yield from self._run_protocol(packet)
        else:
            yield from self._deliver_data(packet, key)
        return None

    def _run_protocol(self, packet: Packet) -> Generator:
        """Protocol packet: AIH on the board, or host fallback (ablation)."""
        if self.protocol_sink is None:
            self.packets_dropped += 1
            return
        if self.params.use_aih:
            yield self.handlers.dispatch_time_ns()
            # resolve (and count) the control transfer; the handler logic
            # itself is the DSM engine, charged on the NI clock inside.
            self.handlers.dispatch(packet.handler_key)
            yield from self.protocol_sink(packet, True)
        else:
            # No AIH support: the board must interrupt the host and the
            # protocol runs there (the standard NI's receive economics).
            yield self.params.interrupt_latency_ns
            host_ns = self.params.cpu_cycles_ns(self.params.kernel_trap_cycles)
            self.hooks.steal_host_time(
                self.params.interrupt_latency_ns + host_ns,
                Category.SYNCH_OVERHEAD,
            )
            yield host_ns
            yield from self.protocol_sink(packet, False)
        return None

    def _deliver_data(self, packet: Packet, channel_id: int) -> Generator:
        """Application data: DMA into a posted buffer, announce on the
        ADC receive ring; the host polls (or takes a late interrupt)."""
        ch = self.channel_manager.get(channel_id)
        buf = ch.free.pop()
        if buf is None:
            # No posted receive buffer: the board has nowhere to put the
            # data; drop (the messaging library always pre-posts).
            self.packets_dropped += 1
            self.counters.inc("nic_no_free_buffer")
            return
        vaddr, length = buf
        if packet.payload_bytes > length:
            self.packets_dropped += 1
            self.counters.inc("nic_buffer_too_small")
            return
        if packet.payload_bytes > PIO_THRESHOLD_BYTES:
            yield from self.bus.dma(packet.payload_bytes)
        packet.dst_vaddr = vaddr
        desc = self._receive_descriptor(packet)
        ch.receive.push(desc)
        self._deliver(desc, via_interrupt=False)
        return None

    # -- snooping --------------------------------------------------------------------
    def _snoop(self, node_id: int, vlines: np.ndarray) -> None:
        """Consistency snooping: bus write traffic updates cached buffers.

        The bus carries physical addresses; we translate the written
        lines' pages through the host MMU mirror (RTLB) inside the
        Message Cache.  ``vlines`` arrive as virtual line numbers from
        the cache model, so we first recover the physical frames the bus
        would have shown.
        """
        lines_per_page = self.params.page_size_bytes // self.params.cache_line_bytes
        vpages = np.unique(vlines // lines_per_page)
        frames = []
        for vp in vpages:
            try:
                frames.append(self.tlb.host.translate_v2p(int(vp)))
            except KeyError:
                continue
        if frames:
            self.message_cache.snoop(np.asarray(frames, dtype=np.int64))

    def _snoop_disabled(self, node_id: int, vlines: np.ndarray) -> None:
        """Ablation: un-snooped CPU writes leave board copies stale."""
        lines_per_page = self.params.page_size_bytes // self.params.cache_line_bytes
        vpages = np.unique(vlines // lines_per_page)
        frames = []
        for vp in vpages:
            try:
                frames.append(self.tlb.host.translate_v2p(int(vp)))
            except KeyError:
                continue
        if frames:
            self.message_cache.snoop_disabled_writeback(
                np.asarray(frames, dtype=np.int64))

    # -- receive wake economics ----------------------------------------------------------
    def rx_wake_overhead_ns(self) -> float:
        """Host-side cost+latency of noticing an arrival: the polling
        half of the hybrid scheme (the host is expecting traffic while a
        thread is blocked on a remote operation)."""
        return (
            self.params.poll_interval_ns / 2
            + self.params.cpu_cycles_ns(self.params.poll_check_cycles)
        )
