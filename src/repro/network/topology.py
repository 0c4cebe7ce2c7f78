"""Cluster interconnect: nodes wired to a pluggable fabric topology.

``SimParams.topology`` selects the fabric (``banyan:32``,
``fattree:k=4``, ``torus:4x4x4`` — the grammar in
:mod:`repro.network.spec`); ``None``, the default, is the paper's single
banyan switch.  Timing model for a packet of ``n`` cells from node *s*
to node *d* on the default fabric (cut-through everywhere, so
serialization is charged exactly once, at the switch output port where
many-to-one contention physically queues):

    wire (150 ns)  ->  switch cut-through (500 ns)
                   ->  output-port serialization (n x 681.7 ns, FIFO)
                   ->  wire (150 ns)  ->  destination NIC rx queue

The middle leg is one hop of the walk documented in
:mod:`repro.network.fabrics`; multi-hop fabrics chain several such hops
(FIFO output queueing, input-port head-of-line blocking).  The two host
wires stay here.

The sending NIC's transmit processor is itself a serial simulated
process, which provides source-side serialization of back-to-back sends
from one node (DESIGN.md documents this approximation).
"""

from __future__ import annotations

import dataclasses
from typing import Generator, List, Sequence

from ..engine import Mailbox, Simulator
from ..params import SimParams
from .cell import AtmCell, CellTrain, Packet
from .fabrics import Topology, build_topology


class Network:
    """The cluster fabric: delivery of cell trains between NICs."""

    def __init__(self, sim: Simulator, params: SimParams):
        self.sim = sim
        self.params = params
        #: The routed fabric (:mod:`repro.network.fabrics`); construction
        #: validates the spec and that every node has an attachment point.
        self.topology: Topology = build_topology(sim, params)
        #: One inbound mailbox of :class:`CellTrain` per node (the NIC's
        #: receive processor drains it).
        self.rx_queues: List[Mailbox] = [
            Mailbox(sim, f"rx{i}") for i in range(params.num_processors)
        ]
        self.trains_delivered = 0
        self.cells_delivered = 0
        #: Runtime fault evaluator (repro.faults); None on a clean fabric.
        self.active_faults = (
            params.fault_plan.activate(params.num_processors)
            if params.fault_plan is not None else None
        )

    # -- fault injection ------------------------------------------------------
    def fault_cells_dropped(self, node: int) -> int:
        """Cells the fault plan dropped en route to ``node``."""
        f = self.active_faults
        return f.cells_dropped[node] if f is not None else 0

    def fault_cells_corrupted(self, node: int) -> int:
        """Cells the fault plan corrupted en route to ``node``."""
        f = self.active_faults
        return f.cells_corrupted[node] if f is not None else 0

    def send_train(self, train: CellTrain) -> None:
        """Launch a train asynchronously (fire-and-forget from the NIC)."""
        self.sim.spawn(self._transfer(train), f"xfer-{train.packet.packet_id}")

    def _transfer(self, train: CellTrain) -> Generator:
        p = train.packet
        if p.dst_node == p.src_node:
            raise ValueError("loopback traffic never enters the fabric")
        yield self.params.wire_latency_ns
        yield from self.topology.transit(
            p.src_node, p.dst_node, train.n_cells, p.wire_bytes
        )
        yield self.params.wire_latency_ns
        faults = self.active_faults
        if faults is not None:
            stall = faults.stall_ns(p.dst_node, self.sim.now)
            if stall > 0:
                yield stall
            slow = max(faults.slow_factor(p.src_node, self.sim.now),
                       faults.slow_factor(p.dst_node, self.sim.now))
            if slow > 1.0:
                # A degraded endpoint (NodeSlow) stretches the transfer
                # by the slowdown of its NI processors.
                yield (slow - 1.0) * self.params.train_wire_time_ns(
                    p.wire_bytes)
            lost, corrupted = faults.train_faults(train, self.sim.now)
            if lost or corrupted:
                train = CellTrain(train.packet, train.n_cells,
                                  lost_cells=min(lost, train.n_cells),
                                  corrupted_cells=corrupted)
        self.trains_delivered += 1
        self.rx_queues[p.dst_node].put(train)
        return None

    def send_cells(self, cells: Sequence[AtmCell], packet: Packet) -> None:
        """Per-cell transport: launch a packet's cells individually.

        Fabric timing matches the train path (the cells pipeline through
        together); delivery hands each cell to the destination NIC as its
        own event, which is what lets the receiving PATHFINDER route
        fragments through its fragment table.
        """
        self.sim.spawn(
            self._transfer_cells(list(cells), packet),
            f"xfer-cells-{packet.packet_id}",
        )

    def _transfer_cells(self, cells: List[AtmCell], packet: Packet) -> Generator:
        if packet.dst_node == packet.src_node:
            raise ValueError("loopback traffic never enters the fabric")
        yield self.params.wire_latency_ns
        yield from self.topology.transit(
            packet.src_node, packet.dst_node, len(cells), packet.wire_bytes
        )
        yield self.params.wire_latency_ns
        faults = self.active_faults
        if faults is not None:
            stall = faults.stall_ns(packet.dst_node, self.sim.now)
            if stall > 0:
                yield stall
            slow = max(faults.slow_factor(packet.src_node, self.sim.now),
                       faults.slow_factor(packet.dst_node, self.sim.now))
            if slow > 1.0:
                yield (slow - 1.0) * self.params.train_wire_time_ns(
                    packet.wire_bytes)
        rx = self.rx_queues[packet.dst_node]
        for cell in cells:
            if faults is not None:
                fate = faults.cell_fate(cell, packet, self.sim.now)
                if fate == "drop":
                    continue
                if fate == "corrupt":
                    cell = dataclasses.replace(cell, corrupt=True)
            self.cells_delivered += 1
            rx.put((cell, packet))
        return None

    def transfer_and_wait(self, train: CellTrain) -> Generator:
        """Coroutine form of :meth:`send_train` (microbenchmarks)."""
        yield from self._transfer(train)
        return None

    def min_transit_ns(self, wire_bytes: int) -> float:
        """Uncontended best-case fabric latency for ``wire_bytes``
        (nearest node pair on multi-hop fabrics)."""
        return (
            2 * self.params.wire_latency_ns
            + self.topology.min_transit_ns(wire_bytes)
        )

    def register_metrics(self, scope) -> None:
        """Register the ``net.*`` catalog (docs/network.md) on ``scope``:
        delivery totals here plus the fabric's congestion counters."""
        scope.counter("trains_delivered", fn=lambda: self.trains_delivered)
        scope.counter("cells_delivered", fn=lambda: self.cells_delivered)
        self.topology.register_metrics(scope)
