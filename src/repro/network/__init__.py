"""ATM interconnect models: cells, AAL5 SAR, pluggable fabric topologies.

The 53-byte cell and its per-cell SAR cost are first-class here because
the paper's own performance analysis (Section 3.4, Table 5) identifies
them as the factor that principally limits CNI's gains.

:class:`Network` routes every cell train through a :class:`Topology`
selected by ``SimParams.topology`` (grammar: ``banyan:32``,
``fattree:k=4``, ``torus:4x4x4`` — see :mod:`repro.network.spec` and
docs/network.md); the default is the paper's single banyan switch.
"""

from .cell import (
    FLAG_CACHEABLE,
    HEADER_BYTES,
    AtmCell,
    CellTrain,
    Packet,
    PacketKind,
    parse_header,
)
from .fabrics import (
    BanyanTopology,
    FatTreeTopology,
    Link,
    Topology,
    TorusTopology,
    build_topology,
)
from .fragmentation import Reassembler, ReassemblyStats, Segmenter
from .spec import TopologyError, TopologySpec, parse_topology
from .switch import BanyanFabric
from .topology import Network

__all__ = [
    "AtmCell",
    "BanyanFabric",
    "BanyanTopology",
    "CellTrain",
    "FLAG_CACHEABLE",
    "FatTreeTopology",
    "HEADER_BYTES",
    "Link",
    "Network",
    "Packet",
    "PacketKind",
    "Reassembler",
    "ReassemblyStats",
    "Segmenter",
    "Topology",
    "TopologyError",
    "TopologySpec",
    "TorusTopology",
    "build_topology",
    "parse_topology",
    "parse_header",
]
