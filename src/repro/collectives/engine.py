"""Collective-operation engines: NIC-resident (AIH) and host-based.

One engine instance per node (mirroring :class:`repro.dsm.DsmEngine`),
reachable as ``node.coll``.  Both engines speak the same root-gathered
protocol:

* every participant sends a :class:`CollArrive` to the episode root
  (from the application thread: user-level ADC stores on the CNI, a
  kernel trap on the standard interface);
* the root combines contributions as they arrive and, when the episode
  is full, emits board-originated :class:`CollRelease` packets carrying
  the result (barrier: nothing, or a consistency attachment; all-reduce:
  the combined value; reduce: root keeps the result locally).

*Where* the root's gather/combine/release steps run is the engine's
whole difference:

* :class:`NicCollectiveEngine` — the paper's Section 2.3 payoff.
  PATHFINDER classifies COLLECTIVE packets into Application Interrupt
  Handlers (installed via :class:`~repro.core.aih.HandlerRegistry`);
  every protocol step executes on the NI processor's clock
  (``ni_aih_protocol_cycles``) and the host never takes an interrupt on
  the collective path.  Requires a CNI with AIH support.
* :class:`HostCollectiveEngine` — the baseline.  Every collective packet
  costs the host ``host_protocol_cycles`` of stolen time (plus the
  standard interface's per-packet interrupt, charged by the NIC itself);
  on a CNI the board handler is a trampoline that bounces the packet to
  the host (interrupt + kernel trap + host handler).

Consistency protocols attach to barriers through the optional
``consistency`` hook object (duck-typed; see docs/collectives.md):
``coll_on_arrive``, ``coll_gather_complete``, ``coll_make_release``,
``coll_on_release``.  The DSM engine uses these to ship its interval
payloads inside collective packets, which keeps the pre-collectives
barrier economics bit-for-bit identical.

Retransmission rides the PR-2 reliable transport: collective packets are
ordinary reliable traffic, so a lost cell under a fault plan is retried
by the NIC with no engine involvement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Sequence, Set, Tuple

from ..engine import Category, SimulationError
from ..network import Packet, PacketKind
from ..obs import MetricTemplate
from ..params import SimParams
from .errors import CollectiveError
from .messages import CollArrive, CollMsgType, CollRelease
from .ops import REDUCERS, reduce_values, value_wire_bytes

__all__ = [
    "OPS",
    "CollectiveEngine",
    "NicCollectiveEngine",
    "HostCollectiveEngine",
    "resolve_engine_kind",
    "make_collective_engine",
]

#: Operations every engine implements (and the per-op latency metrics).
OPS = ("barrier", "allreduce", "reduce", "broadcast", "multicast")

_METRICS = MetricTemplate(
    *(("counter", name, None) for name in (
        "ops_completed", "arrivals", "releases", "bytes_sent", "nic_steps",
        "host_steps", "host_interrupts", "timeouts")),
    *(("histogram", f"{op}_ns", None) for op in OPS),
)

#: Sentinel a deadline expiry delivers to a waiter (never a real value).
_TIMEOUT = object()


@dataclass
class _Waiter:
    """A blocked application thread's rendezvous."""

    event: Any
    outstanding: int = 1


@dataclass
class _Episode:
    """Root-side state of one in-flight collective."""

    op: str
    reducer: str
    expected: int
    arrived: Set[int] = field(default_factory=set)
    values: Dict[int, Any] = field(default_factory=dict)
    attached: bool = False


class CollectiveEngine:
    """Shared protocol logic; subclasses choose the execution platform."""

    #: True when protocol steps run on the NI processor (no host part).
    resident = False
    #: Engine name as selected by ``SimParams.collectives``.
    name = "?"

    def __init__(self, node, nprocs: int, root: int = 0):
        if not 0 <= root < nprocs:
            raise CollectiveError(
                f"collective root {root} out of range (nprocs={nprocs})")
        self.node = node
        self.sim = node.sim
        self.params: SimParams = node.params
        self.me: int = node.node_id
        self.nprocs = nprocs
        self.root = root
        #: Consistency attachment hooks (set by the cluster to the DSM
        #: engine); only consulted for barrier payloads.
        self.consistency = None

        #: Per-coll_id episode sequence, advanced by every collective
        #: call (SPMD discipline: all nodes issue the same collectives
        #: on a given coll_id in the same order).
        self._next_seq: Dict[int, int] = {}
        #: Root-side gathers in flight, keyed (coll_id, seq).
        self._episodes: Dict[Tuple[int, int], _Episode] = {}
        #: Blocked application threads, keyed (coll_id, seq).
        self._waiters: Dict[Tuple[int, int], _Waiter] = {}
        #: Releases that arrived before their receiver blocked
        #: (broadcast/multicast races), keyed (coll_id, seq).
        self._pending: Dict[Tuple[int, int], Any] = {}
        #: Episodes this node abandoned on a deadline expiry: a late
        #: wake/release for one of these keys is dropped, not an error.
        self._abandoned: Set[Tuple[int, int]] = set()

        m = node.metrics.scope("coll").register(_METRICS)
        self._m_ops = m["ops_completed"]
        self._m_arrivals = m["arrivals"]
        self._m_releases = m["releases"]
        self._m_bytes = m["bytes_sent"]
        self._m_nic_steps = m["nic_steps"]
        self._m_host_steps = m["host_steps"]
        self._m_host_intr = m["host_interrupts"]
        self._m_timeouts = m["timeouts"]
        self._op_ns = {op: m[f"{op}_ns"] for op in OPS}

    # ------------------------------------------------------------- platform --
    def _charge_rx(self, on_board: bool) -> float:
        """Cost of one inbound protocol step on this engine's platform."""
        raise NotImplementedError

    # ------------------------------------------------------- app-side API --
    def barrier(self, coll_id: int = 0, *, payload: Any = None,
                payload_bytes: int = 0) -> Generator:
        """Block until every node arrives.  ``payload``/``payload_bytes``
        carry a consistency attachment (see module docstring)."""
        yield from self._gather_release(
            "barrier", coll_id, "sum", payload, payload_bytes,
            deliver_all=True)
        return None

    def allreduce(self, value: Any, op: str = "sum",
                  coll_id: int = 0) -> Generator:
        """Combine ``value`` across all nodes; everyone gets the result."""
        self._check_reducer(op)
        result = yield from self._gather_release(
            "allreduce", coll_id, op, value, value_wire_bytes(value),
            deliver_all=True)
        return result

    def reduce(self, value: Any, op: str = "sum", root: Optional[int] = None,
               coll_id: int = 0) -> Generator:
        """Combine ``value`` at ``root``; only the root gets the result
        (non-roots return ``None`` without waiting for completion)."""
        self._check_reducer(op)
        result = yield from self._gather_release(
            "reduce", coll_id, op, value, value_wire_bytes(value),
            deliver_all=False, root=root)
        return result

    def broadcast(self, value: Any = None, root: Optional[int] = None,
                  coll_id: int = 0) -> Generator:
        """One-to-all: the root's ``value`` is returned on every node."""
        t0 = self.sim.now
        root = self.root if root is None else self._check_node(root)
        seq = self._bump_seq(coll_id)
        key = (coll_id, seq)
        if self.me == root:
            if value is None:
                raise CollectiveError("broadcast root must supply a value")
            pb = value_wire_bytes(value)
            for node in range(self.nprocs):
                if node == self.me:
                    continue
                msg = CollRelease(coll_id, "broadcast", seq, value, pb)
                yield from self._app_send(
                    node, CollMsgType.COLL_RELEASE, msg)
            result = value
        else:
            result = yield from self._await_release(key, "broadcast")
        self._finish_op("broadcast", t0)
        return result

    def multicast(self, value: Any = None, dests: Sequence[int] = (),
                  src: Optional[int] = None, coll_id: int = 0) -> Generator:
        """One-to-some: ``src`` sends ``value`` to every node in
        ``dests``; destinations block for it, everyone else falls
        through immediately (the episode sequence still advances on all
        nodes, preserving SPMD numbering)."""
        src = self.root if src is None else self._check_node(src)
        targets = sorted({self._check_node(d) for d in dests})
        seq = self._bump_seq(coll_id)
        key = (coll_id, seq)
        t0 = self.sim.now
        if self.me == src:
            if value is None:
                raise CollectiveError("multicast source must supply a value")
            pb = value_wire_bytes(value)
            for node in targets:
                if node == self.me:
                    continue
                msg = CollRelease(coll_id, "multicast", seq, value, pb)
                yield from self._app_send(
                    node, CollMsgType.COLL_RELEASE, msg)
            self._finish_op("multicast", t0)
            return value
        if self.me in targets:
            result = yield from self._await_release(key, "multicast")
            self._finish_op("multicast", t0)
            return result
        return None

    # --------------------------------------------------- gather machinery --
    def _gather_release(self, op: str, coll_id: int, reducer: str,
                        value: Any, payload_bytes: int, deliver_all: bool,
                        root: Optional[int] = None) -> Generator:
        t0 = self.sim.now
        root = self.root if root is None else self._check_node(root)
        seq = self._bump_seq(coll_id)
        key = (coll_id, seq)
        waiting = deliver_all or self.me == root
        w = self._register_wait(key) if waiting else None
        msg = CollArrive(coll_id, op, seq, self.me, reducer, value,
                         payload_bytes)
        if self.me == root:
            # Local arrival: the app thread itself runs the gather step
            # (same shape as the pre-collectives barrier manager).
            cost = self.params.cpu_cycles_ns(self.params.host_protocol_cycles)
            yield cost
            self.node.account_overhead(cost)
            self._arrive_logic(msg, root)
        else:
            yield from self._app_send(root, CollMsgType.COLL_ARRIVE, msg)
        result = None
        if w is not None:
            result = yield from self._wait(w, key, op)
        self._finish_op(op, t0)
        return result

    def _arrive_logic(self, msg: CollArrive, root: Optional[int] = None) -> None:
        """Root-side gather step (runs on this engine's platform)."""
        self._m_arrivals.inc()
        if not 0 <= msg.arriver < self.nprocs:
            raise CollectiveError(
                f"unknown participant {msg.arriver} in collective "
                f"{msg.coll_id} (nprocs={self.nprocs})")
        key = (msg.coll_id, msg.seq)
        ep = self._episodes.get(key)
        if ep is None:
            ep = _Episode(op=msg.op, reducer=msg.reducer,
                          expected=self.nprocs)
            self._episodes[key] = ep
        if msg.op != ep.op or msg.reducer != ep.reducer:
            raise CollectiveError(
                f"collective {key} mixes operations: "
                f"{(ep.op, ep.reducer)} vs {(msg.op, msg.reducer)}")
        if msg.arriver in ep.arrived:
            raise CollectiveError(
                f"node {msg.arriver} arrived twice at collective {key}")
        ep.arrived.add(msg.arriver)
        att = self.consistency if msg.op == "barrier" else None
        if att is not None and msg.value is not None:
            ep.attached = True
            att.coll_on_arrive(msg.coll_id, msg.arriver, msg.value)
        else:
            ep.values[msg.arriver] = msg.value
        if len(ep.arrived) < ep.expected:
            return
        del self._episodes[key]
        self._complete(msg.coll_id, msg.seq, ep)

    def _complete(self, coll_id: int, seq: int, ep: _Episode) -> None:
        """Episode full: combine and release (root side)."""
        key = (coll_id, seq)
        if ep.op == "barrier" and ep.attached:
            att = self.consistency
            att.coll_gather_complete(coll_id)
            for node in range(self.nprocs):
                payload, pb = att.coll_make_release(coll_id, node)
                if node == self.me:
                    att.coll_on_release(coll_id, payload)
                    self._wake(key, None)
                else:
                    self._send_release(
                        node, CollRelease(coll_id, ep.op, seq, payload, pb))
            return
        result = None
        if ep.op in ("allreduce", "reduce"):
            result = reduce_values(ep.reducer, ep.values)
        if ep.op == "reduce":
            self._wake(key, result)  # root waits; non-roots never block
            return
        pb = value_wire_bytes(result)
        for node in range(self.nprocs):
            if node == self.me:
                self._wake(key, result)
            else:
                self._send_release(
                    node, CollRelease(coll_id, ep.op, seq, result, pb))

    def _release_logic(self, msg: CollRelease) -> None:
        """Participant-side release step."""
        key = (msg.coll_id, msg.seq)
        if key in self._abandoned:
            # This node already gave up on the episode (deadline abort);
            # the straggling release must not park forever in _pending.
            self._abandoned.discard(key)
            return
        value = msg.value
        if (msg.op == "barrier" and self.consistency is not None
                and value is not None):
            self.consistency.coll_on_release(msg.coll_id, value)
            value = None
        if key in self._waiters:
            self._wake(key, value)
        else:
            self._pending[key] = value

    # ------------------------------------------------------ packet handler --
    def handle_packet(self, packet: Packet, on_board: bool) -> Generator:
        """Inbound COLLECTIVE packet (the engine's protocol sink)."""
        yield self._charge_rx(on_board)
        mt = CollMsgType(packet.handler_key)
        if mt is CollMsgType.COLL_ARRIVE:
            self._arrive_logic(packet.payload)
        elif mt is CollMsgType.COLL_RELEASE:
            self._release_logic(packet.payload)
        else:  # pragma: no cover - CollMsgType() above already raises
            raise SimulationError(f"unhandled collective message {mt!r}")
        return None

    # ------------------------------------------------------------- helpers --
    def _check_reducer(self, op: str) -> None:
        if op not in REDUCERS:
            raise CollectiveError(
                f"unknown reducer {op!r} (have {sorted(REDUCERS)})")

    def _check_node(self, node: int) -> int:
        if not 0 <= node < self.nprocs:
            raise CollectiveError(
                f"node {node} out of range (nprocs={self.nprocs})")
        return node

    def _bump_seq(self, coll_id: int) -> int:
        seq = self._next_seq.get(coll_id, 0)
        self._next_seq[coll_id] = seq + 1
        return seq

    def _finish_op(self, op: str, t0: float) -> None:
        self._m_ops.inc()
        self._op_ns[op].observe(self.sim.now - t0)

    def _app_send(self, dst: int, msg_type: CollMsgType, body) -> Generator:
        """Send from the application thread (ADC store on the CNI, kernel
        trap on the standard interface) — mirrors DsmEngine._app_send."""
        from ..core.adc import TransmitDescriptor

        desc = TransmitDescriptor(
            dst_node=dst,
            vaddr=None,
            length=body.wire_bytes,
            handler_key=int(msg_type),
            payload=body,
            channel_id=self.node.dsm_channel_id,
            kind=PacketKind.COLLECTIVE,
        )
        t0 = self.sim.now
        yield from self.node.nic.host_send(desc)
        self.node.account_overhead(self.sim.now - t0)
        self._m_bytes.inc(body.wire_bytes)
        return None

    def _send_release(self, dst: int, msg: CollRelease) -> None:
        """Queue a release from the engine (board-originated)."""
        self._m_releases.inc()
        self._m_bytes.inc(msg.wire_bytes)
        self.node.nic.board_send(
            Packet(
                kind=PacketKind.COLLECTIVE,
                src_node=self.me,
                dst_node=dst,
                channel_id=self.node.dsm_channel_id,
                handler_key=int(CollMsgType.COLL_RELEASE),
                payload_bytes=msg.wire_bytes,
                payload=msg,
            )
        )

    # ------------------------------------------------------ wait machinery --
    def _register_wait(self, key, outstanding: int = 1) -> _Waiter:
        if key in self._waiters:
            raise SimulationError(
                f"node {self.me}: duplicate collective wait on {key}")
        w = _Waiter(event=self.sim.event(), outstanding=outstanding)
        self._waiters[key] = w
        return w

    def _wake(self, key, value=None) -> None:
        w = self._waiters.get(key)
        if w is None:
            if key in self._abandoned:
                self._abandoned.discard(key)
                return
            raise SimulationError(
                f"node {self.me}: spurious collective wake of {key}")
        w.outstanding -= 1
        if w.outstanding <= 0:
            del self._waiters[key]
            w.event.trigger(value)

    def _wait(self, w: _Waiter, key=None, op: Optional[str] = None) -> Generator:
        """Block the app thread on ``w``; charge delay + wake overhead.

        Bounded by ``SimParams.op_deadline_ns`` when it is set and the
        episode ``key`` is known: expiry abandons the episode and raises
        :class:`CollectiveError` naming the missing participants (where
        this node is the root and knows them) and any detector-suspected
        peers — the engine never waits forever on a dead node."""
        deadline = self.params.op_deadline_ns
        timer = None
        if deadline > 0 and key is not None:
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
        if value is _TIMEOUT:
            self._m_timeouts.inc()
            raise CollectiveError(self._timeout_message(key, op, deadline))
        wake_ns = self.node.nic.rx_wake_overhead_ns()
        yield wake_ns
        self.node.account_overhead(wake_ns)
        return value

    def _expire(self, key) -> None:
        """Deadline fired for ``key``: abandon the episode and wake the
        blocked thread with the timeout sentinel."""
        w = self._waiters.pop(key, None)
        if w is None:
            return
        self._abandoned.add(key)
        w.event.trigger(_TIMEOUT)

    def _timeout_message(self, key, op: Optional[str],
                         deadline: float) -> str:
        ep = self._episodes.get(key)
        opname = op or (ep.op if ep is not None else "collective")
        detail = ""
        if ep is not None:
            absent = sorted(set(range(self.nprocs)) - ep.arrived)
            detail += f"; missing participants {absent}"
        suspects = self.node.nic.detector.suspected_peers()
        if suspects:
            detail += f"; suspected dead: {suspects}"
        return (f"node {self.me}: {opname} episode {key} timed out "
                f"after {deadline:.0f} ns{detail}")

    def _await_release(self, key, op: Optional[str] = None) -> Generator:
        """Wait for a release that may already have been delivered
        (broadcast/multicast destinations can block after the packet
        lands; the handler parks the value in ``_pending``)."""
        if key in self._pending:
            return self._pending.pop(key)
        w = self._register_wait(key)
        value = yield from self._wait(w, key, op)
        return value

    def outstanding_waits(self) -> List[str]:
        """Stuck-report probe: this engine's blocked threads and the
        root-side episodes still gathering (see docs/reliability.md)."""
        out = []
        for coll_id, seq in sorted(self._waiters):
            out.append(f"node{self.me}: collective wait "
                       f"(coll {coll_id}, seq {seq})")
        for (coll_id, seq), ep in sorted(self._episodes.items()):
            absent = sorted(set(range(self.nprocs)) - ep.arrived)
            out.append(f"node{self.me}: {ep.op} episode "
                       f"(coll {coll_id}, seq {seq}) gathering, "
                       f"waiting on {absent}")
        return out


class NicCollectiveEngine(CollectiveEngine):
    """Gather/release runs inside AIH handlers on the NI processor."""

    resident = True
    name = "nic"

    def __init__(self, node, nprocs: int, root: int = 0):
        if node.interface != "cni" or not node.params.use_aih:
            raise CollectiveError(
                "NIC-resident collectives need a CNI with AIH support "
                f"(interface={node.interface!r}, "
                f"use_aih={node.params.use_aih})")
        super().__init__(node, nprocs, root)

    def _charge_rx(self, on_board: bool) -> float:
        if not on_board:
            raise SimulationError(
                f"node {self.me}: NIC-resident collective handler "
                "dispatched on the host")
        self._m_nic_steps.inc()
        return self.params.ni_cycles_ns(self.params.ni_aih_protocol_cycles)


class HostCollectiveEngine(CollectiveEngine):
    """Gather/release runs on the host CPU (the paper's baseline)."""

    name = "host"

    def _charge_rx(self, on_board: bool) -> float:
        p = self.params
        self._m_host_steps.inc()
        self._m_host_intr.inc()
        ns = p.cpu_cycles_ns(p.host_protocol_cycles)
        if on_board:
            # CNI trampoline: the board handler's only job is bouncing
            # the packet to the host (interrupt + kernel dispatch), where
            # the real protocol step then runs.
            ns += p.interrupt_latency_ns + p.cpu_cycles_ns(
                p.kernel_trap_cycles)
        self.node.steal_host_time(ns, Category.SYNCH_OVERHEAD)
        return ns


def resolve_engine_kind(params: SimParams, interface: str) -> str:
    """Which engine a platform gets: an explicit ``params.collectives``
    wins (``"nic"`` is rejected later if the platform can't run it);
    ``None`` follows the platform — NIC-resident on a CNI with AIH,
    host-based everywhere else (matching pre-collectives behaviour,
    where protocol handlers ran wherever the interface put them)."""
    if params.collectives is not None:
        return params.collectives
    return "nic" if (interface == "cni" and params.use_aih) else "host"


def make_collective_engine(node, nprocs: int, root: int = 0) -> CollectiveEngine:
    """Build the collective engine for ``node`` per its platform/params."""
    kind = resolve_engine_kind(node.params, node.interface)
    if kind == "nic":
        return NicCollectiveEngine(node, nprocs, root)
    return HostCollectiveEngine(node, nprocs, root)
