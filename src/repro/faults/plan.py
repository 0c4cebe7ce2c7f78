"""Deterministic, seedable fault plans for the simulated fabric.

A :class:`FaultPlan` is an immutable *specification*: a seed plus a
tuple of schedules (:class:`CellLoss`, :class:`CellCorrupt`,
:class:`LinkDown`, :class:`NicStall`).  It travels inside
:class:`~repro.params.SimParams` like any other parameter, so the same
plan drives both interfaces and every experiment reproducibly.

At cluster construction the :class:`~repro.network.Network` calls
:meth:`FaultPlan.activate`, which produces an :class:`ActiveFaultPlan` —
the mutable runtime evaluator holding a fresh ``random.Random(seed)``
and per-destination-node damage counters.  Two activations of the same
plan therefore produce byte-identical fault sequences (the determinism
the chaos suite asserts via :meth:`~repro.engine.RunStats.digest`).

``parse_fault_plan`` accepts the ``--fault-plan`` CLI grammar::

    seed=42;cell_loss(rate=0.01);link_down(src=0,dst=1,from_ns=0,to_ns=1e6)
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Tuple, Union

__all__ = [
    "CellLoss",
    "CellCorrupt",
    "LinkDown",
    "NicStall",
    "NodeCrash",
    "NodeSlow",
    "FaultPlan",
    "ActiveFaultPlan",
    "parse_fault_plan",
]


def _check_flow(src: Optional[int], dst: Optional[int]) -> None:
    for name, v in (("src", src), ("dst", dst)):
        if v is not None and v < 0:
            raise ValueError(f"{name}={v} is not a node index")


def _check_window(from_ns: float, to_ns: float) -> None:
    if from_ns < 0 or to_ns <= from_ns:
        raise ValueError(f"empty or negative window [{from_ns}, {to_ns})")


@dataclass(frozen=True)
class CellLoss:
    """Drop cells in transit.

    ``rate`` draws each cell independently from the plan's seeded RNG;
    ``nth`` deterministically drops every nth cell this schedule sees
    (both may be combined; either trigger drops the cell).  ``src`` /
    ``dst`` restrict the schedule to one directed flow; ``from_ns`` /
    ``to_ns`` gate it to a simulated-time window.
    """

    rate: float = 0.0
    nth: Optional[int] = None
    src: Optional[int] = None
    dst: Optional[int] = None
    from_ns: float = 0.0
    to_ns: float = float("inf")

    def __post_init__(self):
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"cell loss rate {self.rate} outside [0, 1]")
        if self.nth is not None and self.nth < 1:
            raise ValueError(f"nth={self.nth} must be >= 1")
        if self.rate == 0.0 and self.nth is None:
            raise ValueError("CellLoss needs rate > 0 or nth")
        _check_flow(self.src, self.dst)
        _check_window(self.from_ns, self.to_ns)


@dataclass(frozen=True)
class CellCorrupt:
    """Corrupt cell payloads in transit (AAL5 CRC failure at the
    receiver: the cell arrives, the packet dies at end-of-packet).
    Same selectors as :class:`CellLoss`."""

    rate: float = 0.0
    nth: Optional[int] = None
    src: Optional[int] = None
    dst: Optional[int] = None
    from_ns: float = 0.0
    to_ns: float = float("inf")

    __post_init__ = CellLoss.__post_init__


@dataclass(frozen=True)
class LinkDown:
    """A directed link outage: every cell from ``src`` to ``dst`` whose
    delivery falls inside ``[from_ns, to_ns)`` is lost."""

    src: int
    dst: int
    from_ns: float
    to_ns: float

    def __post_init__(self):
        _check_flow(self.src, self.dst)
        _check_window(self.from_ns, self.to_ns)


@dataclass(frozen=True)
class NicStall:
    """The receive side of ``node`` freezes during ``[from_ns, to_ns)``:
    inbound traffic is held (not lost) until the stall ends — the model
    of a wedged receive processor or a board-firmware pause."""

    node: int
    from_ns: float
    to_ns: float

    def __post_init__(self):
        if self.node < 0:
            raise ValueError(f"node={self.node} is not a node index")
        _check_window(self.from_ns, self.to_ns)


@dataclass(frozen=True)
class NodeCrash:
    """``node`` fail-stops at ``at_ns``: its NIC stops sourcing and
    sinking cells (every cell to or from it dies at the fabric, its own
    heartbeats included, so peers detect the silence) and the cluster
    cancels its pending host work.  The crash-stop model — no byzantine
    recovery, no rejoin."""

    node: int
    at_ns: float = 0.0

    def __post_init__(self):
        if self.node < 0:
            raise ValueError(f"node={self.node} is not a node index")
        if self.at_ns < 0:
            raise ValueError(f"at_ns={self.at_ns} must be >= 0")


@dataclass(frozen=True)
class NodeSlow:
    """``node`` runs degraded during ``[from_ns, to_ns)``: traffic it
    sources or sinks takes ``factor`` times the wire time — the model of
    a thermally throttled or paging peer that is alive but late (the
    failure-detector false-positive generator)."""

    node: int
    factor: float = 2.0
    from_ns: float = 0.0
    to_ns: float = float("inf")

    def __post_init__(self):
        if self.node < 0:
            raise ValueError(f"node={self.node} is not a node index")
        if self.factor < 1.0:
            raise ValueError(f"factor={self.factor} must be >= 1")
        _check_window(self.from_ns, self.to_ns)


Schedule = Union[CellLoss, CellCorrupt, LinkDown, NicStall,
                 NodeCrash, NodeSlow]


@dataclass(frozen=True)
class FaultPlan:
    """An immutable fault specification: seed + schedules.

    Hashable and comparable, so it can ride inside the frozen
    :class:`~repro.params.SimParams` without breaking ``replace()``.
    """

    seed: int = 0
    schedules: Tuple[Schedule, ...] = ()

    def __post_init__(self):
        # Accept any iterable of schedules; store a tuple (hashability).
        object.__setattr__(self, "schedules", tuple(self.schedules))
        self.validate()

    def validate(self) -> None:
        """Raise :class:`ValueError` on a malformed plan."""
        for s in self.schedules:
            if not isinstance(s, (CellLoss, CellCorrupt, LinkDown, NicStall,
                                  NodeCrash, NodeSlow)):
                raise ValueError(f"not a fault schedule: {s!r}")

    def activate(self, num_nodes: int) -> "ActiveFaultPlan":
        """Create the runtime evaluator (fresh RNG, zeroed counters)."""
        return ActiveFaultPlan(self.schedules, self.seed, num_nodes)

    def describe(self) -> str:
        """One-line form in the ``--fault-plan`` grammar.

        Round-trips: ``parse_fault_plan(plan.describe()) == plan`` for
        every schedule kind (tests/faults/test_plan.py asserts it)."""
        parts = [f"seed={self.seed}"]
        parts.extend(_describe_schedule(s) for s in self.schedules)
        return ";".join(parts)


class ActiveFaultPlan:
    """The mutable runtime evaluator of one :class:`FaultPlan`.

    Owned by a :class:`~repro.network.Network`; evaluated at delivery
    time (after fabric transit, before the destination rx queue).
    Damage is counted per destination node so the cluster can export
    ``node<i>.faults.*``.
    """

    def __init__(self, schedules: Tuple[Schedule, ...], seed: int,
                 num_nodes: int):
        self.schedules = tuple(schedules)
        self.rng = random.Random(seed)
        self.cells_dropped: List[int] = [0] * num_nodes
        self.cells_corrupted: List[int] = [0] * num_nodes
        #: per-schedule running cell position, for ``nth`` triggers
        self._positions: Dict[int, int] = {}
        #: node -> earliest NodeCrash time (crash-stop: no rejoin)
        self._crash_at: Dict[int, float] = {}
        for s in schedules:
            if isinstance(s, NodeCrash):
                at = self._crash_at.get(s.node)
                if at is None or s.at_ns < at:
                    self._crash_at[s.node] = s.at_ns

    # -- helpers --------------------------------------------------------------
    @staticmethod
    def _matches(s, src: int, dst: int, now: float) -> bool:
        if s.src is not None and s.src != src:
            return False
        if s.dst is not None and s.dst != dst:
            return False
        return s.from_ns <= now < s.to_ns

    def _count_nth(self, idx: int, nth: int, n_cells: int) -> int:
        """Advance schedule ``idx``'s cell position by ``n_cells``;
        return how many of them land on a multiple of ``nth``."""
        pos = self._positions.get(idx, 0)
        hits = (pos + n_cells) // nth - pos // nth
        self._positions[idx] = pos + n_cells
        return hits

    # -- evaluation -----------------------------------------------------------
    def crash_times(self) -> Dict[int, float]:
        """``{node: earliest crash time}`` for every scheduled crash."""
        return dict(self._crash_at)

    def node_dead(self, node: int, now: float) -> bool:
        """True once ``node`` has fail-stopped (its crash time passed)."""
        at = self._crash_at.get(node)
        return at is not None and now >= at

    def slow_factor(self, node: int, now: float) -> float:
        """Wire-time multiplier for traffic touching ``node`` now
        (1.0 when no :class:`NodeSlow` window is active)."""
        factor = 1.0
        for s in self.schedules:
            if isinstance(s, NodeSlow) and s.node == node \
                    and s.from_ns <= now < s.to_ns:
                factor = max(factor, s.factor)
        return factor

    def stall_ns(self, node: int, now: float) -> float:
        """Extra delivery delay for traffic arriving at ``node`` now."""
        extra = 0.0
        for s in self.schedules:
            if isinstance(s, NicStall) and s.node == node \
                    and s.from_ns <= now < s.to_ns:
                extra = max(extra, s.to_ns - now)
        return extra

    def train_faults(self, train, now: float) -> Tuple[int, int]:
        """Damage to a batched cell train delivered at ``now``.

        Returns ``(lost_cells, corrupted_cells)`` and updates the
        per-destination counters.
        """
        p = train.packet
        n = train.n_cells
        if self.node_dead(p.src_node, now) or self.node_dead(p.dst_node, now):
            self.cells_dropped[p.dst_node] += n
            return n, 0
        lost = 0
        corrupted = 0
        for idx, s in enumerate(self.schedules):
            if isinstance(s, LinkDown):
                if s.src == p.src_node and s.dst == p.dst_node \
                        and s.from_ns <= now < s.to_ns:
                    lost = n
            elif isinstance(s, (CellLoss, CellCorrupt)):
                if not self._matches(s, p.src_node, p.dst_node, now):
                    continue
                hits = 0
                if s.nth is not None:
                    hits += self._count_nth(idx, s.nth, n)
                if s.rate > 0.0:
                    hits += sum(1 for _ in range(n)
                                if self.rng.random() < s.rate)
                hits = min(hits, n)
                if isinstance(s, CellLoss):
                    lost += hits
                else:
                    corrupted += hits
        lost = min(lost, n)
        corrupted = min(corrupted, n - lost)
        if lost:
            self.cells_dropped[p.dst_node] += lost
        if corrupted:
            self.cells_corrupted[p.dst_node] += corrupted
        return lost, corrupted

    def cell_fate(self, cell, packet, now: float) -> str:
        """Fate of one cell in per-cell transport: ``"ok"``, ``"drop"``
        or ``"corrupt"``."""
        if self.node_dead(packet.src_node, now) \
                or self.node_dead(packet.dst_node, now):
            self.cells_dropped[packet.dst_node] += 1
            return "drop"
        fate = "ok"
        for idx, s in enumerate(self.schedules):
            if isinstance(s, LinkDown):
                if s.src == packet.src_node and s.dst == packet.dst_node \
                        and s.from_ns <= now < s.to_ns:
                    fate = "drop"
            elif isinstance(s, (CellLoss, CellCorrupt)):
                if not self._matches(s, packet.src_node, packet.dst_node, now):
                    continue
                hit = False
                if s.nth is not None:
                    hit = self._count_nth(idx, s.nth, 1) > 0
                if not hit and s.rate > 0.0:
                    hit = self.rng.random() < s.rate
                if hit:
                    if isinstance(s, CellLoss):
                        fate = "drop"
                    elif fate == "ok":
                        fate = "corrupt"
        if fate == "drop":
            self.cells_dropped[packet.dst_node] += 1
        elif fate == "corrupt":
            self.cells_corrupted[packet.dst_node] += 1
        return fate


# ------------------------------------------------------------- CLI parser --

_SCHEDULE_TYPES = {
    "cell_loss": CellLoss,
    "cell_corrupt": CellCorrupt,
    "link_down": LinkDown,
    "nic_stall": NicStall,
    "node_crash": NodeCrash,
    "node_slow": NodeSlow,
}

_GRAMMAR_NAMES = {cls: name for name, cls in _SCHEDULE_TYPES.items()}

_INT_KEYS = {"nth", "src", "dst", "node", "seed"}


def _describe_schedule(s: Schedule) -> str:
    """One schedule in the grammar; inverse of ``parse_fault_plan``."""
    pairs = []
    for f in fields(s):
        value = getattr(s, f.name)
        if value is None:
            continue
        pairs.append(f"{f.name}={value!r}")
    return f"{_GRAMMAR_NAMES[type(s)]}({','.join(pairs)})"


def _parse_value(key: str, text: str) -> Union[int, float]:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"fault plan: {key}={text!r} is not a number")
    if key in _INT_KEYS:
        if value != int(value):
            raise ValueError(f"fault plan: {key}={text!r} must be an integer")
        return int(value)
    return value


def parse_fault_plan(spec: str) -> FaultPlan:
    """Parse the ``--fault-plan`` grammar into a :class:`FaultPlan`.

    Clauses are ``;``-separated: a bare ``seed=N`` sets the seed, and
    ``name(key=value, ...)`` adds one schedule, e.g.::

        seed=42;cell_loss(rate=0.01)
        cell_loss(nth=100,src=0,dst=1);nic_stall(node=2,from_ns=0,to_ns=5e5)
    """
    seed = 0
    schedules: List[Schedule] = []
    for clause in spec.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        if "(" not in clause:
            key, _, value = clause.partition("=")
            if key.strip() != "seed" or not value:
                raise ValueError(f"fault plan: bad clause {clause!r}")
            seed = int(_parse_value("seed", value.strip()))
            continue
        name, _, rest = clause.partition("(")
        name = name.strip()
        if name not in _SCHEDULE_TYPES:
            raise ValueError(
                f"fault plan: unknown schedule {name!r}; choose from "
                f"{sorted(_SCHEDULE_TYPES)}")
        if not rest.endswith(")"):
            raise ValueError(f"fault plan: unbalanced parentheses in {clause!r}")
        kwargs = {}
        body = rest[:-1].strip()
        if body:
            for pair in body.split(","):
                key, eq, value = pair.partition("=")
                if not eq:
                    raise ValueError(
                        f"fault plan: expected key=value, got {pair!r}")
                kwargs[key.strip()] = _parse_value(key.strip(), value.strip())
        try:
            schedules.append(_SCHEDULE_TYPES[name](**kwargs))
        except TypeError as exc:
            raise ValueError(f"fault plan: {name}: {exc}") from None
    return FaultPlan(seed=seed, schedules=tuple(schedules))
