"""The table-driven hop walk holds exactly the links ``route`` names.

``transit`` walks integer link tables and never formats a name, while
``route`` reads the same tables back as names for analysis.  These tests
pin the two against each other over every node pair, and pin the input
port model: the port a train holds after arriving on a link is that
link's own resource.
"""

import pytest

from repro.engine import Simulator
from repro.network import Network, parse_topology
from repro.params import SimParams


def make_topo(spec):
    params = SimParams().replace(
        num_processors=parse_topology(spec).capacity, topology=spec)
    return Network(Simulator(), params).topology


def walk_all_pairs(topo):
    """Transit one train per ordered pair, one at a time, recording
    ``(arrived_on, link)`` for every hop the walk takes."""
    hops = {}
    walk = topo._traverse_hop

    def spy(crossing, arrived_on, link, serialize_ns):
        hops[pair].append((arrived_on, link))
        return walk(crossing, arrived_on, link, serialize_ns)

    topo._traverse_hop = spy
    for src in range(topo.capacity):
        for dst in range(topo.capacity):
            if src == dst:
                continue
            pair = (src, dst)
            hops[pair] = []
            topo.sim.run_process(topo.transit(src, dst, 1, 53))
    return hops


@pytest.mark.parametrize("spec", ["fattree:k=4", "torus:4x4",
                                  "torus:3x3x2"])
def test_transit_holds_the_routed_links_in_order(spec):
    topo = make_topo(spec)
    hops = walk_all_pairs(topo)
    assert len(hops) == topo.capacity * (topo.capacity - 1)
    for (src, dst), walked in hops.items():
        assert [link.name for _arr, link in walked] == topo.route(src, dst)
        # each hop arrives on the link the previous hop streamed onto
        arrivals = [arr for arr, _link in walked]
        assert arrivals == [None] + [link for _arr, link in walked[:-1]]
    # one hop per link of every route, and one crossing per switch
    assert topo.link_hops == sum(len(w) for w in hops.values())
    assert (topo.link_waits, topo.hol_blocks) == (0, 0)


@pytest.mark.parametrize("spec", ["fattree:k=4", "torus:4x4",
                                  "torus:3x3x2"])
def test_each_arriving_link_owns_one_input_port(spec):
    topo = make_topo(spec)
    hops = walk_all_pairs(topo)
    arrived = {id(arr): arr for walked in hops.values()
               for arr, _link in walked if arr is not None}
    ports = {id(link.port) for link in arrived.values()}
    assert len(ports) == len(arrived)
    for link in arrived.values():
        assert link.port.acquisitions > 0
        assert not link.port.busy
    # a link no train arrived on never built a port
    unused = [link for link in topo.links.values()
              if id(link) not in arrived]
    assert all(link._port is None for link in unused)


def test_fattree_tables_cover_every_link_once():
    topo = make_topo("fattree:k=4")
    tables = (topo._host_up + topo._host_down
              + [l for pod in topo._edge_up for row in pod for l in row]
              + [l for pod in topo._agg_down for row in pod for l in row]
              + [l for pod in topo._agg_up for row in pod for l in row]
              + [l for core in topo._core_down for l in core])
    assert sorted(l.name for l in tables) == sorted(topo.links)


def test_torus_tables_match_coordinates():
    topo = make_topo("torus:3x3x2")
    for n in range(topo.nodes):
        coords = topo._coords(n)
        for dim, size in enumerate(topo.dims):
            for sign, slot in ((+1, 2 * dim), (-1, 2 * dim + 1)):
                link = topo._out[n][slot]
                assert link.name == f"n{n}.d{dim}{'+' if sign > 0 else '-'}"
                moved = list(coords)
                moved[dim] = (moved[dim] + sign) % size
                assert topo._next[n][slot] == topo._node(tuple(moved))
