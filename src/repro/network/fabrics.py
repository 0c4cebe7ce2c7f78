"""Pluggable fabric topologies: banyan, fat-tree, 3-D torus.

The :class:`Topology` interface is what :class:`repro.network.Network`
routes every cell train through; ``SimParams.topology`` selects the
concrete fabric via the grammar in :mod:`repro.network.spec`
(``banyan:32``, ``fattree:k=4``, ``torus:4x4x4``).  Three fabrics
register here:

* :class:`BanyanTopology` — the paper's single banyan switch and the
  default (``SimParams.topology = None``): one hop of the shared walk,
  cut-through latency then serialization on the destination's output
  port.
* :class:`FatTreeTopology` — a three-level fat-tree of banyan elements
  (k-ary: k pods of k/2 edge + k/2 aggregation switches, (k/2)^2 core
  switches, k^3/4 hosts) with deterministic up/down routing: the up-path
  and the core switch are a pure function of the destination, so the
  down-path is the destination-rooted tree and every (src, dst) pair has
  exactly one route.
* :class:`TorusTopology` — an APEnet+-style 2-D/3-D torus direct
  network.  ``dor`` routing is classic dimension-order (fix X, then Y,
  then Z, travelling the shorter way around each ring); ``adaptive`` is
  minimal-adaptive — at each router the train takes the least-queued
  productive link, falling back to dimension order on ties (the escape
  path that keeps routing deterministic and progress guaranteed).

Shared timing model (every fabric)::

    per switch crossed   cut-through latency   (SimParams.switch_latency_ns)
    per inter-switch link  propagation          (SimParams.wire_latency_ns)
    per link             serialization at      SimParams.link_rate_bps, holding
                         the link — concurrent trains queue FIFO
                         (output-queue congestion)

Head-of-line blocking is modelled at switch input ports: a train that
arrived on link L and is waiting for a busy output holds L's input port
at that switch, so a later train arriving on the same L queues behind it
even when its own output is free.  A train never holds more than one
input port and one output link at a time, and output links are held for
bounded serialization time only — the acquisition graph is acyclic, so
the model cannot deadlock.

The host injection/ejection wires are charged by ``Network`` around
:meth:`Topology.transit`.  Fabric counters live on the topology object
and surface as the ``net.*`` metric scope (docs/network.md) whenever a
topology is explicitly selected.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

from ..engine import Resource, Simulator
from ..params import SimParams
from .spec import TopologyError, TopologySpec, parse_topology
from .switch import BanyanFabric

__all__ = [
    "BanyanTopology",
    "FatTreeTopology",
    "Link",
    "Topology",
    "TorusTopology",
    "build_topology",
]


class Link:
    """One directed fabric link: a FIFO resource at the line rate."""

    __slots__ = ("name", "res", "latency_ns", "_params")

    def __init__(self, sim: Simulator, name: str, params: SimParams,
                 latency_ns: float = 0.0):
        self.name = name
        self.res = Resource(sim, f"link:{name}")
        self.latency_ns = latency_ns
        self._params = params

    def serialize_ns(self, wire_bytes: int) -> float:
        """Line-rate serialization time of one packet's cells here."""
        return self._params.train_wire_time_ns(wire_bytes)


class Topology:
    """A cluster fabric: timed delivery of cell trains between nodes.

    Subclasses supply :meth:`route` (the pure path, for analysis and
    tests) and :meth:`transit` (the timed traversal).  The base class
    owns the shared counters (``net.*`` catalog, docs/network.md), the
    link/input-port tables, and the per-hop timed walk.
    """

    kind = "abstract"

    def __init__(self, sim: Simulator, params: SimParams,
                 spec: TopologySpec):
        self.sim = sim
        self.params = params
        self.spec = spec
        self.links: Dict[str, Link] = {}
        self._in_ports: Dict[Tuple[str, str], Resource] = {}
        # -- net.* counters (registered by Network.register_metrics) ----
        self.crossings = 0        # switch/router traversals
        self.link_hops = 0        # links traversed
        self.link_waits = 0       # arrivals that queued on a busy link
        self.hol_blocks = 0       # arrivals that queued on an input port
        self.adaptive_detours = 0  # torus adaptive picked a non-DOR dim

    # -- construction helpers ------------------------------------------------
    def _add_link(self, name: str, latency_ns: float = 0.0) -> Link:
        link = Link(self.sim, name, self.params, latency_ns=latency_ns)
        self.links[name] = link
        return link

    def _in_port(self, switch: str, arrived_on: Link) -> Resource:
        """The input-port resource for trains entering ``switch`` on
        ``arrived_on``."""
        key = (switch, arrived_on.name)
        port = self._in_ports.get(key)
        if port is None:
            port = Resource(self.sim, f"in:{switch}<{arrived_on.name}")
            self._in_ports[key] = port
        return port

    # -- interface -----------------------------------------------------------
    @property
    def capacity(self) -> int:
        """Nodes this fabric can attach."""
        return self.spec.capacity

    def describe(self) -> str:
        """Canonical spec string (round-trips through the grammar)."""
        return self.spec.canonical()

    def check_nodes(self, n: int) -> None:
        """Raise when ``n`` nodes exceed this fabric's attachment points."""
        if n > self.capacity:
            raise TopologyError(
                f"{n} nodes exceed the {self.describe()} fabric's "
                f"{self.capacity} attachment points")

    def route(self, src: int, dst: int) -> List[str]:
        """The (zero-load) path as an ordered list of link names."""
        raise NotImplementedError

    def transit(self, src: int, dst: int, n_cells: int,
                wire_bytes: int) -> Generator:
        """Coroutine: move one train through the fabric.  Returns when
        the train's last cell has left its final link."""
        raise NotImplementedError

    def min_transit_ns(self, wire_bytes: int) -> float:
        """Best-case (uncontended, nearest-pair) fabric latency,
        excluding the two host wires ``Network`` charges around it."""
        raise NotImplementedError

    def max_link_queue(self) -> int:
        """Deepest output queue across all links (diagnostics gauge)."""
        depth = 0
        for link in self.links.values():
            if link.res.queue_length > depth:
                depth = link.res.queue_length
        return depth

    def register_metrics(self, scope) -> None:
        """Register the fabric's ``net.*`` counters on ``scope``."""
        scope.counter("crossings", fn=lambda: self.crossings)
        scope.counter("link_hops", fn=lambda: self.link_hops)
        scope.counter("link_waits", fn=lambda: self.link_waits)
        scope.counter("hol_blocks", fn=lambda: self.hol_blocks)
        scope.counter("adaptive_detours", fn=lambda: self.adaptive_detours)
        scope.gauge("max_link_queue", fn=self.max_link_queue)

    # -- the shared timed walk -----------------------------------------------
    def _traverse_hop(self, switch: Optional[str], arrived_on: Optional[Link],
                      link: Link, wire_bytes: int) -> Generator:
        """One hop: cross ``switch`` (if any), then stream onto ``link``.

        Crossing charges the cut-through latency and contends for the
        input port (head-of-line blocking); the link itself is held for
        propagation + serialization, queueing concurrent trains FIFO.
        """
        in_port = None
        if switch is not None:
            yield self.params.switch_latency_ns
            self.crossings += 1
            # Host injection holds no input port: the source NIC already
            # serializes its own sends.
            if arrived_on is not None:
                in_port = self._in_port(switch, arrived_on)
        if in_port is not None:
            if in_port.busy:
                self.hol_blocks += 1
            yield from in_port.acquire()
        if link.res.busy:
            self.link_waits += 1
        yield from link.res.acquire()
        if in_port is not None:
            in_port.release()
        try:
            if link.latency_ns:
                yield link.latency_ns
            yield link.serialize_ns(wire_bytes)
        finally:
            link.res.release()
        self.link_hops += 1
        return None


class BanyanTopology(Topology):
    """The paper's single banyan switch: one hop of the shared walk.

    A train cuts through switch ``sw`` and serializes on output link
    ``sw.out<dst>``, so concurrent trains to one port queue FIFO there.
    Internal-link blocking is second-order once output queueing is
    modelled; :class:`~repro.network.switch.BanyanFabric` exposes it for
    analysis.
    """

    kind = "banyan"

    def __init__(self, sim: Simulator, params: SimParams,
                 spec: Optional[TopologySpec] = None):
        if spec is None:
            spec = TopologySpec("banyan", ports=params.switch_ports)
        super().__init__(sim, params, spec)
        self.fabric = BanyanFabric(spec.ports)
        self._out = [self._add_link(f"sw.out{p}")
                     for p in range(spec.ports)]

    def check_nodes(self, n: int) -> None:
        # The pre-topology-layer message, verbatim (it is load-bearing
        # for callers that match on it).
        if n > self.capacity:
            raise TopologyError(
                f"{n} nodes exceed the {self.capacity}-port switch")

    def route(self, src: int, dst: int) -> List[str]:
        self.fabric._check_port(src)
        self.fabric._check_port(dst)
        return [f"sw.out{dst}"]

    def transit(self, src: int, dst: int, n_cells: int,
                wire_bytes: int) -> Generator:
        self.fabric._check_port(src)
        self.fabric._check_port(dst)
        if n_cells < 1:
            raise ValueError("train must carry at least one cell")
        yield from self._traverse_hop("sw", None, self._out[dst], wire_bytes)
        return None

    def min_transit_ns(self, wire_bytes: int) -> float:
        return (self.params.switch_latency_ns
                + self.params.train_wire_time_ns(wire_bytes))


class FatTreeTopology(Topology):
    """Three-level k-ary fat-tree of banyan switching elements.

    Host ``i`` sits in pod ``i // (k^2/4)`` under edge switch
    ``(i % (k^2/4)) // (k/2)``.  Up/down routing is destination-rooted:
    the aggregation position is ``dst mod k/2`` and the core index
    derives from the destination's edge position, so the down-path from
    the core to ``dst`` is the same for every source — one unique route
    per (src, dst) pair.
    """

    kind = "fattree"

    def __init__(self, sim: Simulator, params: SimParams,
                 spec: TopologySpec):
        super().__init__(sim, params, spec)
        k = spec.k
        self.k = k
        self.half = k // 2
        self.pods = k
        self.hosts = k ** 3 // 4
        wire = params.wire_latency_ns
        for host in range(self.hosts):
            self._add_link(f"host{host}.up")
            self._add_link(f"host{host}.down")
        for pod in range(self.pods):
            for e in range(self.half):
                for a in range(self.half):
                    self._add_link(f"p{pod}.e{e}.up.a{a}", latency_ns=wire)
                    self._add_link(f"p{pod}.a{a}.down.e{e}", latency_ns=wire)
            for a in range(self.half):
                for c in range(self.half):
                    core = a * self.half + c
                    self._add_link(f"p{pod}.a{a}.up.c{core}",
                                   latency_ns=wire)
                    self._add_link(f"c{core}.down.p{pod}", latency_ns=wire)

    # -- host coordinates ----------------------------------------------------
    def _locate(self, host: int) -> Tuple[int, int, int]:
        """(pod, edge, port) of a host."""
        if not 0 <= host < self.hosts:
            raise TopologyError(
                f"host {host} out of range 0..{self.hosts - 1}")
        per_pod = self.k * self.k // 4  # k^2/4 hosts per pod
        pod, rest = divmod(host, per_pod)
        edge, port = divmod(rest, self.half)
        return pod, edge, port

    def _hops(self, src: int, dst: int
              ) -> List[Tuple[Optional[str], str]]:
        """The unique up/down path as (switch, link-name) hops."""
        sp, se, _ = self._locate(src)
        dp, de, _ = self._locate(dst)
        a = dst % self.half                       # agg position, dst-rooted
        core = a * self.half + (dst // self.half) % self.half
        hops: List[Tuple[Optional[str], str]] = [(None, f"host{src}.up")]
        if (sp, se) == (dp, de):
            hops.append((f"edge{sp}.{se}", f"host{dst}.down"))
            return hops
        if sp == dp:
            hops.append((f"edge{sp}.{se}", f"p{sp}.e{se}.up.a{a}"))
            hops.append((f"agg{sp}.{a}", f"p{sp}.a{a}.down.e{de}"))
            hops.append((f"edge{dp}.{de}", f"host{dst}.down"))
            return hops
        hops.append((f"edge{sp}.{se}", f"p{sp}.e{se}.up.a{a}"))
        hops.append((f"agg{sp}.{a}", f"p{sp}.a{a}.up.c{core}"))
        hops.append((f"core{core}", f"c{core}.down.p{dp}"))
        hops.append((f"agg{dp}.{a}", f"p{dp}.a{a}.down.e{de}"))
        hops.append((f"edge{dp}.{de}", f"host{dst}.down"))
        return hops

    def route(self, src: int, dst: int) -> List[str]:
        return [name for _sw, name in self._hops(src, dst)]

    def transit(self, src: int, dst: int, n_cells: int,
                wire_bytes: int) -> Generator:
        arrived: Optional[Link] = None
        for switch, name in self._hops(src, dst):
            link = self.links[name]
            yield from self._traverse_hop(switch, arrived, link, wire_bytes)
            arrived = link
        return None

    def min_transit_ns(self, wire_bytes: int) -> float:
        # Nearest pair: two hosts under one edge switch (2 host links,
        # one crossing, no inter-switch propagation).
        serialize = self.params.train_wire_time_ns(wire_bytes)
        return self.params.switch_latency_ns + 2 * serialize


class TorusTopology(Topology):
    """APEnet+-style 2-D/3-D torus with DOR or minimal-adaptive routing.

    Node ``n`` has coordinates ``(x, y, z)`` with ``x`` fastest
    (``n = x + X*(y + Y*z)``); each node's router owns one directed link
    per dimension and direction, with wraparound.  Every route is
    minimal: the direction of travel in each dimension is fixed to the
    shorter way around the ring (ties break positive), so ``dor`` and
    ``adaptive`` differ only in the *order* dimensions are corrected —
    adaptive picks the least-queued productive link at each router and
    falls back to dimension order on ties.
    """

    kind = "torus"

    def __init__(self, sim: Simulator, params: SimParams,
                 spec: TopologySpec):
        super().__init__(sim, params, spec)
        self.dims = tuple(spec.dims)
        self.routing = spec.routing
        self.nodes = spec.capacity
        wire = params.wire_latency_ns
        for n in range(self.nodes):
            for dim, size in enumerate(self.dims):
                if size < 2:
                    continue
                for sign in (+1, -1):
                    self._add_link(self._link_name(n, dim, sign),
                                   latency_ns=wire)

    # -- coordinates ---------------------------------------------------------
    def _coords(self, n: int) -> Tuple[int, ...]:
        if not 0 <= n < self.nodes:
            raise TopologyError(f"node {n} out of range 0..{self.nodes - 1}")
        out = []
        for size in self.dims:
            n, c = divmod(n, size)
            out.append(c)
        return tuple(out)

    def _node(self, coords: Tuple[int, ...]) -> int:
        n = 0
        for size, c in zip(reversed(self.dims), reversed(coords)):
            n = n * size + c
        return n

    def _link_name(self, node: int, dim: int, sign: int) -> str:
        return f"n{node}.d{dim}{'+' if sign > 0 else '-'}"

    def _neighbor(self, node: int, dim: int, sign: int) -> int:
        coords = list(self._coords(node))
        coords[dim] = (coords[dim] + sign) % self.dims[dim]
        return self._node(tuple(coords))

    def _deltas(self, src: int, dst: int) -> List[Tuple[int, int, int]]:
        """Remaining travel per dimension: (dim, sign, steps), minimal
        direction with ties broken positive — the moves both routing
        modes draw from."""
        sc, dc = self._coords(src), self._coords(dst)
        moves = []
        for dim, size in enumerate(self.dims):
            fwd = (dc[dim] - sc[dim]) % size
            if fwd == 0:
                continue
            if fwd <= size - fwd:
                moves.append((dim, +1, fwd))
            else:
                moves.append((dim, -1, size - fwd))
        return moves

    def route(self, src: int, dst: int) -> List[str]:
        """The dimension-order path (adaptive's zero-load/escape path)."""
        self._coords(dst)
        names = []
        here = src
        for dim, sign, steps in self._deltas(src, dst):
            for _ in range(steps):
                names.append(self._link_name(here, dim, sign))
                here = self._neighbor(here, dim, sign)
        return names

    def _pick_move(self, here: int, moves: List[Tuple[int, int, int]]
                   ) -> Tuple[int, Tuple[int, int, int]]:
        """Adaptive selection: the productive link with the shortest
        queue; dimension order (the escape order) breaks ties.  Returns
        (index into moves, move)."""
        best_i, best_load = 0, None
        for i, (dim, sign, _steps) in enumerate(moves):
            link = self.links[self._link_name(here, dim, sign)]
            load = link.res.queue_length + (1 if link.res.busy else 0)
            if best_load is None or load < best_load:
                best_i, best_load = i, load
        return best_i, moves[best_i]

    def transit(self, src: int, dst: int, n_cells: int,
                wire_bytes: int) -> Generator:
        moves = [list(m) for m in self._deltas(src, dst)]
        here = src
        arrived: Optional[Link] = None
        while moves:
            if self.routing == "adaptive" and len(moves) > 1:
                i, _ = self._pick_move(
                    here, [tuple(m) for m in moves])
                if i != 0:
                    self.adaptive_detours += 1
            else:
                i = 0
            dim, sign, _ = moves[i]
            link = self.links[self._link_name(here, dim, sign)]
            yield from self._traverse_hop(f"rt{here}", arrived, link,
                                          wire_bytes)
            arrived = link
            here = self._neighbor(here, dim, sign)
            moves[i][2] -= 1
            if moves[i][2] == 0:
                del moves[i]
        return None

    def min_transit_ns(self, wire_bytes: int) -> float:
        # Nearest pair: adjacent routers, one crossing + one link.
        return (self.params.switch_latency_ns + self.params.wire_latency_ns
                + self.params.train_wire_time_ns(wire_bytes))


def build_topology(sim: Simulator, params: SimParams) -> Topology:
    """Build the fabric ``params.topology`` selects (validated).

    ``None`` is the paper's machine: a single banyan switch with
    ``params.switch_ports`` ports.  The returned fabric has already
    checked that ``params.num_processors`` nodes fit.
    """
    spec = parse_topology(params.topology)
    if params.topology is None:
        spec = TopologySpec("banyan", ports=params.switch_ports)
    if spec.kind == "banyan":
        topo: Topology = BanyanTopology(sim, params, spec)
    elif spec.kind == "fattree":
        topo = FatTreeTopology(sim, params, spec)
    else:
        topo = TorusTopology(sim, params, spec)
    topo.check_nodes(params.num_processors)
    return topo
