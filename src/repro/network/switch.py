"""Routing arithmetic of the 32-port banyan-network ATM switch.

Section 3: "The switch latencies are obtained from a 32-port
banyan-network based ATM switch model."  A banyan network for ``N = 2^k``
ports has ``k`` stages of ``N/2`` two-by-two switching elements and
exactly one path between any input and output — which is why banyans are
*internally blocking*: two flows can collide on an internal link even
when their output ports differ.

This module routes with real banyan arithmetic (destination-tag routing)
and exposes the internal path for blocking analysis.  The switch's
timing — the Table 1 cut-through latency of 500 ns, then FIFO
serialization on the output port — is one hop of the shared fabric walk
in :class:`repro.network.fabrics.BanyanTopology`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple


def _is_pow2(n: int) -> bool:
    return n > 0 and n & (n - 1) == 0


class BanyanFabric:
    """Pure routing arithmetic for an Omega-style banyan (no timing).

    Stage ``s`` (0-based) switches on bit ``k-1-s`` of the destination
    port (destination-tag routing).  Between stages the wiring is a
    perfect shuffle.
    """

    def __init__(self, ports: int):
        if not _is_pow2(ports) or ports < 2:
            raise ValueError(f"banyan needs a power-of-two port count, got {ports}")
        self.ports = ports
        self.stages = ports.bit_length() - 1  # log2

    def path(self, inport: int, outport: int) -> List[Tuple[int, int]]:
        """Internal links used: list of ``(stage, wire)`` hops.

        ``wire`` is the line index (0..ports-1) occupied *after* each
        stage; two flows conflict internally iff they share a
        ``(stage, wire)`` pair.
        """
        self._check_port(inport)
        self._check_port(outport)
        k = self.stages
        wire = inport
        hops = []
        for s in range(k):
            # perfect shuffle into the stage
            wire = ((wire << 1) | ((wire >> (k - 1)) & 1)) & (self.ports - 1)
            # the element replaces the low bit with the routing bit
            bit = (outport >> (k - 1 - s)) & 1
            wire = (wire & ~1) | bit
            hops.append((s, wire))
        return hops

    def conflicts(self, flows: Sequence[Tuple[int, int]]) -> int:
        """Count internal-link collisions among concurrent ``flows``.

        A collision is a ``(stage, wire)`` used by more than one flow;
        each extra user counts once.  Used by tests and by the
        performance analysis, not by the timing model directly.
        """
        seen: Dict[Tuple[int, int], int] = {}
        for inp, outp in flows:
            for hop in self.path(inp, outp):
                seen[hop] = seen.get(hop, 0) + 1
        return sum(c - 1 for c in seen.values() if c > 1)

    def _check_port(self, p: int) -> None:
        if not 0 <= p < self.ports:
            raise ValueError(f"port {p} out of range 0..{self.ports - 1}")
