"""Per-cell transport mode: the PATHFINDER fragment table in action."""

import pytest

from repro.faults import CellLoss, FaultPlan
from repro.params import SimParams
from repro.runtime import Cluster, MessagingService


def make_cluster(iface="cni", **over):
    params = SimParams().replace(
        num_processors=2, dsm_address_space_pages=16,
        per_cell_transport=True, **over,
    )
    return Cluster(params, interface=iface)


def ping(cluster, nbytes=4096):
    got = {}

    def kernel(ctx):
        svc = MessagingService(ctx, buffer_bytes=8192)
        if ctx.rank == 0:
            yield from svc.touch_send_buffer(nbytes)
            yield from svc.send(1, nbytes, payload="hello")
        else:
            desc = yield from svc.recv()
            got["payload"] = desc.payload
            got["t"] = ctx.sim.now

    stats = cluster.run(kernel)
    return got, stats


def test_per_cell_delivery_works():
    cluster = make_cluster()
    got, stats = ping(cluster)
    assert got["payload"] == "hello"


def test_fragment_table_was_used():
    cluster = make_cluster()
    got, _ = ping(cluster, nbytes=4096)
    pf = cluster.nodes[1].nic.pathfinder
    # 4 KB -> 86 cells: one header classification, 85 table routings
    assert pf.fragment_hits >= 80
    assert pf.fragment_table_size == 0  # retired at end-of-packet


def test_single_cell_message_skips_fragment_table():
    cluster = make_cluster()
    got, _ = ping(cluster, nbytes=16)
    pf = cluster.nodes[1].nic.pathfinder
    assert got["payload"] == "hello"
    assert pf.fragment_hits == 0


def test_dsm_protocol_works_per_cell():
    cluster = make_cluster()
    arr = cluster.alloc_shared((512,))
    base = arr.base_vaddr

    def kernel(ctx):
        if ctx.rank == 0:
            yield from ctx.write_runs([(base, 4096)])
            arr.data[:] = 3.0
        yield from ctx.barrier()
        if ctx.rank == 1:
            yield from ctx.read_runs([(base, 4096)])
            assert arr.data[0] == 3.0
        yield from ctx.barrier()

    stats = cluster.run(kernel)
    assert stats.counters["dsm_pages_installed"] >= 1


def test_per_cell_loss_drops_packet():
    # Each 4096-byte packet is 86 cells.  nth=50 hits cell 49 of the
    # first packet (delivered at ~188 us); the window closes before the
    # second packet lands (~247 us), so exactly one mid-packet cell is
    # lost.
    plan = FaultPlan(schedules=(
        CellLoss(nth=50, src=0, dst=1, to_ns=200_000.0),))
    cluster = make_cluster(fault_plan=plan)
    got = {}

    def kernel(ctx):
        svc = MessagingService(ctx, buffer_bytes=8192)
        if ctx.rank == 0:
            yield from svc.touch_send_buffer(4096)
            yield from svc.send(1, 4096, payload="lost")
            yield from svc.send(1, 4096, payload="arrives")
        else:
            desc = yield from svc.recv()
            got["payload"] = desc.payload

    cluster.run(kernel)
    assert cluster.network.fault_cells_dropped(1) == 1
    assert got["payload"] == "arrives"  # the damaged packet was dropped
    assert cluster.nodes[1].nic.reassembler.stats.packets_dropped == 1


def test_per_cell_and_train_latencies_agree():
    """The two transports share fabric timing; end-to-end latency per
    packet differs only by bounded per-fragment bookkeeping."""
    t_cell = ping(make_cluster())[0]["t"]
    params = SimParams().replace(
        num_processors=2, dsm_address_space_pages=16,
    )
    t_train = ping(Cluster(params, interface="cni"))[0]["t"]
    assert t_cell == pytest.approx(t_train, rel=0.05)


def test_standard_interface_per_cell():
    cluster = make_cluster("standard")
    got, _ = ping(cluster)
    assert got["payload"] == "hello"
    assert cluster.nodes[1].nic.interrupts_raised >= 1
