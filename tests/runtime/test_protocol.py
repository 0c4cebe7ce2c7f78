"""Tests for the messaging runtime's protocol layer (docs/runtime.md):
eager/rendezvous dispatch, one-sided RDMA, edge cases, determinism."""

import pytest

from repro.apps import (
    HaloConfig,
    PingPongConfig,
    TransposeConfig,
    run_pingpong,
)
from repro.engine import SimulationError
from repro.faults import CellLoss, FaultPlan
from repro.harness import RunSpec, run_map
from repro.network import Packet, PacketKind
from repro.obs import aggregate_nodes
from repro.params import SimParams
from repro.runtime import Cluster, MessagingService
from repro.runtime.protocol import RdvData, RtMsgType, _RdvIn


def make_cluster(iface, nprocs=2, **over):
    params = SimParams().replace(
        num_processors=nprocs, dsm_address_space_pages=16, **over
    )
    return Cluster(params, interface=iface)


# ------------------------------------------------------- protocol dispatch --

def _pingpong_counts(message_bytes, threshold, rounds=2):
    stats, _ = run_pingpong(
        SimParams().replace(num_processors=2,
                            rendezvous_threshold=threshold),
        "cni", PingPongConfig(rounds=rounds, message_bytes=message_bytes))
    agg = aggregate_nodes(stats.metrics)
    return agg["runtime.eager_sends"], agg["runtime.rendezvous_sends"]


def test_threshold_boundary_is_inclusive():
    """size == threshold is still eager; threshold + 1 goes rendezvous."""
    eager, rdv = _pingpong_counts(2048, threshold=2048)
    assert (eager, rdv) == (4, 0)
    eager, rdv = _pingpong_counts(2049, threshold=2048)
    assert (eager, rdv) == (0, 4)


def test_zero_threshold_forces_rendezvous():
    eager, rdv = _pingpong_counts(64, threshold=0)
    assert (eager, rdv) == (0, 4)


@pytest.mark.parametrize("iface", ["cni", "standard"])
def test_rendezvous_delivers_large_payload(iface):
    """A 12 KB message (3 chunks) arrives once, intact, in order."""
    cluster = make_cluster(iface)
    got = []

    def kernel(ctx):
        svc = MessagingService(ctx)
        if ctx.rank == 0:
            yield from svc.send(1, 12288, payload=("big", 1))
        else:
            desc = yield from svc.recv()
            got.append(desc)
        yield from ctx.barrier(0)

    stats = cluster.run(kernel)
    (desc,) = got
    assert desc.length == 12288
    assert desc.payload == ("big", 1)
    agg = aggregate_nodes(stats.metrics)
    assert agg["runtime.rendezvous_sends"] == 1
    assert agg["runtime.rts_sent"] == 1
    assert agg["runtime.cts_sent"] == 1
    assert agg["runtime.rdv_chunks"] == 3


def test_rendezvous_send_not_bounded_by_buffer_bytes():
    """Eager is capped by buffer_bytes; rendezvous is not."""
    cluster = make_cluster("cni")

    def kernel(ctx):
        svc = MessagingService(ctx, buffer_bytes=1024)
        if ctx.rank == 0:
            with pytest.raises(ValueError):
                yield from svc.send_eager(1, 2048)
            yield from svc.send(1, 65536)  # rendezvous: fine
        else:
            desc = yield from svc.recv()
            assert desc.length == 65536
        yield from ctx.barrier(0)

    cluster.run(kernel)


# ---------------------------------------------------------------- buffering --

def test_receive_buffer_exhaustion_drops_and_recovers():
    """With one posted buffer and a busy receiver, extra eager arrivals
    drop on the free queue (counted), and a recv re-posts the buffer."""
    cluster = make_cluster("cni")
    got = []

    def kernel(ctx):
        svc = MessagingService(ctx, n_recv_buffers=1, buffer_bytes=4096)
        if ctx.rank == 0:
            for i in range(3):
                yield from svc.send(1, 4096, payload=i)
            yield from ctx.compute(50_000_000)
            yield from svc.send(1, 4096, payload=3)
        else:
            yield from ctx.compute(5_000_000)
            desc = yield from svc.recv()
            got.append(desc.payload)
            desc = yield from svc.recv()
            got.append(desc.payload)

    stats = cluster.run(kernel)
    # First arrival took the only buffer; arrivals 2 and 3 found the
    # free queue empty and were dropped.
    assert stats.counters["nic_no_free_buffer"] == 2
    assert got == [0, 3]


def test_rendezvous_immune_to_free_queue_exhaustion():
    """Rendezvous data bypasses the free queue (engine-allocated landing
    buffer), so a busy receiver with one posted buffer loses nothing."""
    cluster = make_cluster("cni")
    got = []

    def kernel(ctx):
        svc = MessagingService(ctx, n_recv_buffers=1, buffer_bytes=4096)
        if ctx.rank == 0:
            for i in range(3):
                yield from svc.send(1, 8192, payload=i)
        else:
            yield from ctx.compute(5_000_000)
            for _ in range(3):
                desc = yield from svc.recv()
                got.append(desc.payload)
        yield from ctx.barrier(0)

    stats = cluster.run(kernel)
    assert got == [0, 1, 2]
    assert stats.counters["nic_no_free_buffer"] == 0


# -------------------------------------------------------------- reliability --

def test_unacked_sends_drain_under_loss():
    """With the reliable transport on and a lossy fabric, every node's
    retransmission window is empty once the run completes."""
    # Deterministic sparse loss: every 200th cell.  A random rate would
    # occasionally kill the same retransmitted train 10 times in a row
    # and trip DeliveryFailed; nth loss spreads drops across the run.
    plan = FaultPlan(seed=7, schedules=(CellLoss(nth=200),))
    cluster = make_cluster("cni", reliable_transport=True, fault_plan=plan)
    leftover = {}

    def kernel(ctx):
        svc = MessagingService(ctx)
        peer = 1 - ctx.rank
        for r in range(4):
            if ctx.rank == 0:
                yield from svc.send(peer, 6144, payload=r)
                desc = yield from svc.recv()
                assert desc.payload == r
            else:
                desc = yield from svc.recv()
                assert desc.payload == r
                yield from svc.send(peer, 6144, payload=r)
        yield from ctx.barrier(0)
        # Barrier traffic is reliable too; drain anything still in
        # flight before sampling.
        while svc.unacked_sends():
            yield from ctx.idle(1000)
        leftover[ctx.rank] = svc.unacked_sends()

    stats = cluster.run(kernel)
    assert leftover == {0: 0, 1: 0}
    # The plan actually did damage, or this test proves nothing.
    agg = aggregate_nodes(stats.metrics)
    assert agg["faults.cells_dropped"] > 0


# ------------------------------------------------------------------- RDMA --

def test_remote_read_and_write_round_trip():
    cluster = make_cluster("cni")
    seen = {}

    def kernel(ctx):
        svc = MessagingService(ctx)
        window = svc.expose(4096)
        yield from ctx.barrier(0)
        if ctx.rank == 0:
            got = yield from svc.remote_read(1, window, 4096)
            seen["read_bytes"] = got
            yield from svc.remote_write(1, window, 2048)
        yield from ctx.barrier(1)

    stats = cluster.run(kernel)
    assert seen["read_bytes"] == 4096
    agg = aggregate_nodes(stats.metrics)
    assert agg["runtime.remote_reads"] == 1
    assert agg["runtime.remote_writes"] == 1
    assert agg["runtime.rdma_bytes"] == 4096 + 2048


def test_remote_read_mcache_advantage_on_cni():
    """Repeated reads of an unmodified window: the CNI's reply path hits
    the target's Message Cache; the standard interface has no cache."""
    def hit_ratio(iface):
        stats, _ = run_pingpong(
            SimParams().replace(num_processors=2), iface,
            PingPongConfig(rounds=6, message_bytes=2048, mode="read"))
        lookups = stats.counters.get("mc_transmit_lookups")
        return (stats.counters.get("mc_transmit_hits") / lookups
                if lookups else 0.0)

    assert hit_ratio("cni") > hit_ratio("standard")
    assert hit_ratio("standard") == 0.0


def test_unregistered_window_faults_loudly():
    """A one-sided access outside any exposed window is a simulation
    error on the target, not a silent wild DMA."""
    cluster = make_cluster("cni")

    def kernel(ctx):
        svc = MessagingService(ctx)
        window = svc.expose(4096)
        yield from ctx.barrier(0)
        if ctx.rank == 0:
            # One byte past the end of the registered range.
            yield from svc.remote_read(1, window + 1, 4096)
        yield from ctx.barrier(1)

    with pytest.raises(SimulationError, match="remote_read"):
        cluster.run(kernel)


# ------------------------------------------------------- rendezvous order --

def _rdv_receiver(nbytes):
    """Node 1 with one open ``nbytes`` rendezvous stream from node 0, and
    a feeder that delivers one RDV_DATA chunk of that stream."""
    cluster = make_cluster("cni")
    node = cluster.nodes[1]
    node.rt._rdv_in[(0, 7)] = _RdvIn(
        src=0, base_vaddr=node.alloc_private_buffer(nbytes), nbytes=nbytes)

    def feed(offset, size, last, app_payload=None):
        packet = Packet(kind=PacketKind.RUNTIME, src_node=0, dst_node=1,
                        channel_id=0, handler_key=int(RtMsgType.RDV_DATA),
                        payload_bytes=size,
                        payload=RdvData(7, offset, last, app_payload))
        cluster.sim.spawn(node.rt._on_rdv_data(packet, on_board=True))
        cluster.sim.run()

    return node, feed


def test_rendezvous_last_chunk_before_earlier_chunk_delivers_once():
    """Adaptive routing can land the ``last`` chunk first: the stream
    completes when every byte is in, with the last chunk's payload."""
    node, feed = _rdv_receiver(8192)
    feed(4096, 4096, last=True, app_payload=("big", 2))
    assert not node.app_inbox and (0, 7) in node.rt._rdv_in
    feed(0, 4096, last=False)
    (desc,) = node.app_inbox
    assert (desc.length, desc.payload) == (8192, ("big", 2))
    assert not node.rt._rdv_in


def test_rendezvous_second_last_chunk_raises():
    node, feed = _rdv_receiver(8192)
    feed(4096, 2048, last=True)
    with pytest.raises(SimulationError, match="closed twice"):
        feed(6144, 2048, last=True)


def test_rendezvous_over_delivery_raises():
    node, feed = _rdv_receiver(8192)
    feed(0, 4096, last=False)
    with pytest.raises(SimulationError, match="overran at 12288/8192"):
        feed(4096, 8192, last=False)


@pytest.mark.parametrize("iface", ["cni", "standard"])
def test_transpose_completes_on_adaptive_torus(iface):
    """Default transpose (p=8) on the adaptive torus, whose reordered
    rendezvous chunks used to close a stream early on the CNI."""
    params = SimParams().replace(num_processors=8,
                                 topology="torus:2x2x2:adaptive")
    (stats,) = run_map([RunSpec("transpose", params, iface,
                                TransposeConfig())], jobs=1, record=False)
    assert aggregate_nodes(stats.metrics)["runtime.rendezvous_sends"] == 112
    assert stats.metrics["net.adaptive_detours"] > 0


# ------------------------------------------------------------- determinism --

def test_messaging_workloads_digest_deterministic_across_jobs():
    base = SimParams().replace(num_processors=4)
    specs = [
        RunSpec("pingpong", base.replace(num_processors=2), "cni",
                PingPongConfig(rounds=3, message_bytes=6144)),
        RunSpec("halo", base, "cni", HaloConfig(iters=2, halo_bytes=1024)),
        RunSpec("transpose", base, "standard",
                TransposeConfig(rounds=1, block_bytes=8192)),
    ]
    serial = run_map(specs, jobs=1, record=False)
    parallel = run_map(specs, jobs=2, record=False)
    assert [s.digest() for s in serial] == [s.digest() for s in parallel]
