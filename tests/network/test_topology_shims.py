"""Legacy-compatible behaviour of the default fabric.

The 1.0 deprecation shims themselves are gone; what stays is that a
``Network`` built without a ``topology`` is the banyan of the paper,
reached without warnings, and rejects oversized clusters with the
pre-topology-layer message.
"""

import warnings

import pytest

from repro.engine import Simulator
from repro.network import BanyanTopology, Network
from repro.params import SimParams


def test_network_topology_access_does_not_warn():
    sim = Simulator()
    net = Network(sim, SimParams().replace(num_processors=4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert isinstance(net.topology, BanyanTopology)
        net.min_transit_ns(480)


def test_default_fabric_is_banyan_with_legacy_rejection():
    sim = Simulator()
    with pytest.raises(ValueError, match="exceed the 32-port switch"):
        Network(sim, SimParams().replace(num_processors=33,
                                         switch_ports=32))
