"""Unit tests for the Network fabric."""

import pytest

from repro.engine import Simulator
from repro.faults import ActiveFaultPlan, CellLoss, FaultPlan
from repro.network import Network, Packet, PacketKind, Segmenter
from repro.obs import MetricsRegistry
from repro.params import SimParams


def make_net(nprocs=4, **over):
    sim = Simulator()
    params = SimParams().replace(num_processors=nprocs, **over)
    return sim, params, Network(sim, params)


def packet(src, dst, size=100):
    return Packet(
        kind=PacketKind.DATA, src_node=src, dst_node=dst, channel_id=1,
        payload_bytes=size,
    )


def test_too_many_nodes_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        Network(sim, SimParams().replace(num_processors=33))


def test_default_and_explicit_banyan_time_identically():
    """topology=None and topology='banyan:32' are the same machine:
    every transfer lands at the same nanosecond."""

    def run_once(**over):
        sim, params, net = make_net(**over)
        seg = Segmenter(params)
        out = []

        def proc():
            yield from net.transfer_and_wait(seg.make_train(packet(0, 1, 400)))
            out.append(sim.now)

        sim.spawn(proc(), "p")
        sim.run()
        return out[0]

    assert run_once() == run_once(topology="banyan:32")


def test_workload_timing_unchanged_on_default_fabric():
    """A full workload on topology=None digests identically to the same
    run on an explicit banyan:32 in everything but the metric catalog
    (net.* registers only when a topology is selected)."""
    from repro.apps import JacobiConfig, run

    cfg = JacobiConfig(n=16, iterations=2)
    a, _ = run("jacobi", SimParams().replace(num_processors=4), "cni", cfg)
    b, _ = run("jacobi",
               SimParams().replace(num_processors=4, topology="banyan:32"),
               "cni", cfg)
    assert a.elapsed_ns == b.elapsed_ns
    assert a.counters.as_dict() == b.counters.as_dict()
    assert not any(k.startswith("net.") for k in a.metrics)
    net_keys = {k for k in b.metrics if k.startswith("net.")}
    assert {"net.trains_delivered", "net.crossings", "net.hol_blocks",
            "net.link_waits", "net.link_hops", "net.adaptive_detours",
            "net.max_link_queue", "net.cells_delivered"} == net_keys


def test_banyan_output_port_queueing_counts_link_waits():
    """Two trains racing for one banyan output port: the second queues
    on the port, and net.link_waits counts it."""
    sim, params, net = make_net(topology="banyan:8")
    registry = MetricsRegistry()
    net.register_metrics(registry.scope("net"))
    seg = Segmenter(params)
    net.send_train(seg.make_train(packet(0, 3, 400)))
    net.send_train(seg.make_train(packet(1, 3, 400)))
    sim.run()
    snap = registry.snapshot()
    assert snap["net.link_waits"] == 1
    assert snap["net.crossings"] == snap["net.link_hops"] == 2
    assert snap["net.hol_blocks"] == 0


def test_delivery_to_rx_queue():
    sim, params, net = make_net()
    p = packet(0, 1)
    seg = Segmenter(params)
    net.send_train(seg.make_train(p))
    sim.run()
    ok, train = net.rx_queues[1].try_get()
    assert ok and train.packet is p
    assert net.trains_delivered == 1


def test_delivery_latency_matches_min_transit():
    sim, params, net = make_net()
    p = packet(0, 1, size=4096)
    seg = Segmenter(params)
    got = []

    def receiver():
        train = yield from net.rx_queues[1].get()
        got.append((train, sim.now))

    sim.spawn(receiver(), "rx")
    net.send_train(seg.make_train(p))
    sim.run()
    (train, t), = got
    assert t == pytest.approx(net.min_transit_ns(p.wire_bytes))


def test_min_transit_components():
    sim, params, net = make_net()
    expected = 2 * 150.0 + 500.0 + params.train_wire_time_ns(116)
    assert net.min_transit_ns(116) == pytest.approx(expected)


def test_loopback_rejected():
    sim, params, net = make_net()
    seg = Segmenter(params)

    def proc():
        yield from net.transfer_and_wait(seg.make_train(packet(2, 2)))

    with pytest.raises(ValueError):
        sim.run_process(proc())


def test_loss_injection():
    # Drop exactly the last cell of the train: nth = the train's cell
    # count, deterministic per the plan's schedule position.
    p = packet(0, 1, size=4096)
    n_cells = SimParams().cells_for_packet(p.wire_bytes)
    plan = FaultPlan(seed=0, schedules=(CellLoss(nth=n_cells),))
    sim, params, net = make_net(fault_plan=plan)
    seg = Segmenter(params)
    net.send_train(seg.make_train(p))
    sim.run()
    ok, train = net.rx_queues[1].try_get()
    assert ok and not train.intact
    assert train.lost_cells == 1


def test_train_loss_counted_by_fault_plan():
    # Train transport: a plan attaches the runtime evaluator, and train
    # damage is counted by it per destination.
    p = packet(0, 1, size=400)
    n_cells = SimParams().cells_for_packet(p.wire_bytes)
    assert make_net()[2].active_faults is None  # clean fabric
    plan = FaultPlan(schedules=(CellLoss(nth=n_cells),))
    sim, params, net = make_net(fault_plan=plan)
    assert isinstance(net.active_faults, ActiveFaultPlan)
    net.send_train(Segmenter(params).make_train(p))
    sim.run()
    ok, train = net.rx_queues[1].try_get()
    assert ok and train.lost_cells == 1
    assert net.active_faults.cells_dropped[1] == 1
    assert net.fault_cells_dropped(1) == 1
    assert net.fault_cells_dropped(2) == 0


def test_per_cell_loss_counted_by_fault_plan():
    # Per-cell transport: the plan decides each cell's fate on its own.
    p = packet(0, 1, size=400)
    plan = FaultPlan(schedules=(CellLoss(nth=3),))
    sim, params, net = make_net(fault_plan=plan)
    cells = Segmenter(params).segment(p)
    net.send_cells(cells, p)
    sim.run()
    delivered = []
    while True:
        ok, item = net.rx_queues[1].try_get()
        if not ok:
            break
        delivered.append(item)
    assert [cell.seq for cell, _ in delivered] == [
        c.seq for c in cells if (c.seq + 1) % 3]
    assert net.fault_cells_dropped(1) == len(cells) - len(delivered)


def test_concurrent_transfers_to_distinct_nodes():
    sim, params, net = make_net()
    seg = Segmenter(params)
    net.send_train(seg.make_train(packet(0, 1)))
    net.send_train(seg.make_train(packet(2, 3)))
    sim.run()
    assert net.rx_queues[1].try_get()[0]
    assert net.rx_queues[3].try_get()[0]


def test_unrestricted_page_transfer_is_faster():
    _, base_params, base_net = make_net()
    _, unres_params, unres_net = make_net(unrestricted_cell_size=True)
    assert unres_net.min_transit_ns(4096 + 16) < base_net.min_transit_ns(4096 + 16)
