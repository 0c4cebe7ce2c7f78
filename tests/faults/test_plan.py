"""Unit tests for FaultPlan schedules, activation and the CLI grammar."""

import pytest

from repro.faults import (
    ActiveFaultPlan,
    CellCorrupt,
    CellLoss,
    FaultPlan,
    LinkDown,
    NicStall,
    parse_fault_plan,
)
from repro.network import CellTrain, Packet, PacketKind, Segmenter
from repro.params import SimParams


def packet(src=0, dst=1, size=4096):
    return Packet(
        kind=PacketKind.DATA, src_node=src, dst_node=dst, channel_id=1,
        payload_bytes=size,
    )


def train(src=0, dst=1, n_cells=10):
    return CellTrain(packet(src, dst), n_cells)


# -- schedule validation ------------------------------------------------------

def test_cell_loss_validates():
    CellLoss(rate=0.5)
    CellLoss(nth=3)
    with pytest.raises(ValueError):
        CellLoss(rate=1.5)
    with pytest.raises(ValueError):
        CellLoss(rate=-0.1)
    with pytest.raises(ValueError):
        CellLoss(nth=0)
    with pytest.raises(ValueError):
        CellLoss()  # needs rate or nth
    with pytest.raises(ValueError):
        CellLoss(rate=0.1, from_ns=100, to_ns=100)  # empty window
    with pytest.raises(ValueError):
        CellLoss(rate=0.1, src=-1)


def test_link_down_and_stall_validate():
    LinkDown(src=0, dst=1, from_ns=0, to_ns=1e6)
    with pytest.raises(ValueError):
        LinkDown(src=0, dst=1, from_ns=5, to_ns=5)
    NicStall(node=2, from_ns=0, to_ns=100)
    with pytest.raises(ValueError):
        NicStall(node=-1, from_ns=0, to_ns=100)


def test_plan_is_frozen_and_hashable():
    plan = FaultPlan(seed=7, schedules=(CellLoss(rate=0.1),))
    assert hash(plan) == hash(FaultPlan(seed=7, schedules=(CellLoss(rate=0.1),)))
    with pytest.raises(Exception):
        plan.seed = 8
    # rides inside the frozen SimParams
    params = SimParams().replace(fault_plan=plan)
    assert params.fault_plan is plan
    # describe() emits the --fault-plan grammar (round-trips
    # through parse_fault_plan; see tests/faults/test_roundtrip.py)
    assert "cell_loss" in plan.describe()
    assert plan.describe().startswith("seed=7;")


def test_plan_rejects_non_schedules():
    with pytest.raises(ValueError):
        FaultPlan(schedules=("drop everything",))


# -- activation semantics -----------------------------------------------------

def test_seeded_activations_are_identical():
    plan = FaultPlan(seed=5, schedules=(CellLoss(rate=0.3),))
    a, b = plan.activate(4), plan.activate(4)
    fates_a = [a.train_faults(train(), now=0.0) for _ in range(20)]
    fates_b = [b.train_faults(train(), now=0.0) for _ in range(20)]
    assert fates_a == fates_b
    assert sum(l for l, _ in fates_a) > 0
    assert a.cells_dropped == b.cells_dropped


def test_nth_counts_across_trains():
    plan = FaultPlan(schedules=(CellLoss(nth=3),))
    active = plan.activate(2)
    # 10-cell trains: positions 0..9 then 10..19; multiples of 3 below 20
    # are 3,6,9,12,15,18 -> 3 hits in each train.
    assert active.train_faults(train(n_cells=10), now=0.0) == (3, 0)
    assert active.train_faults(train(n_cells=10), now=0.0) == (3, 0)
    assert active.cells_dropped[1] == 6


def test_window_gates_schedule():
    plan = FaultPlan(schedules=(CellLoss(rate=1.0, from_ns=100, to_ns=200),))
    active = plan.activate(2)
    assert active.train_faults(train(n_cells=5), now=50.0) == (0, 0)
    assert active.train_faults(train(n_cells=5), now=150.0) == (5, 0)
    assert active.train_faults(train(n_cells=5), now=200.0) == (0, 0)


def test_flow_selector_restricts_direction():
    plan = FaultPlan(schedules=(CellLoss(rate=1.0, src=0, dst=1),))
    active = plan.activate(4)
    assert active.train_faults(train(0, 1, 4), now=0.0) == (4, 0)
    assert active.train_faults(train(1, 0, 4), now=0.0) == (0, 0)
    assert active.train_faults(train(2, 1, 4), now=0.0) == (0, 0)


def test_link_down_kills_matching_flow_only():
    plan = FaultPlan(schedules=(LinkDown(src=0, dst=1, from_ns=0, to_ns=1e3),))
    active = plan.activate(4)
    assert active.train_faults(train(0, 1, 8), now=500.0) == (8, 0)
    assert active.train_faults(train(1, 0, 8), now=500.0) == (0, 0)
    assert active.train_faults(train(0, 1, 8), now=2e3) == (0, 0)


def test_corrupt_counts_separately_from_loss():
    plan = FaultPlan(schedules=(CellCorrupt(nth=2),))
    active = plan.activate(2)
    lost, corrupted = active.train_faults(train(n_cells=10), now=0.0)
    assert lost == 0 and corrupted == 5
    assert active.cells_corrupted[1] == 5
    assert active.cells_dropped[1] == 0


def test_nic_stall_window():
    plan = FaultPlan(schedules=(NicStall(node=1, from_ns=100, to_ns=400),))
    active = plan.activate(2)
    assert active.stall_ns(1, now=50.0) == 0.0
    assert active.stall_ns(1, now=100.0) == pytest.approx(300.0)
    assert active.stall_ns(1, now=399.0) == pytest.approx(1.0)
    assert active.stall_ns(0, now=200.0) == 0.0


def test_cell_fate_drop_and_corrupt():
    plan = FaultPlan(schedules=(CellLoss(nth=2), CellCorrupt(nth=3)))
    active = plan.activate(2)
    seg = Segmenter(SimParams())
    p = packet()
    fates = [active.cell_fate(c, p, now=0.0) for c in seg.segment(p)[:12]]
    assert "drop" in fates and "corrupt" in fates
    # a cell hit by both schedules is dropped, not corrupted
    assert fates.count("drop") == 6


# -- CLI grammar --------------------------------------------------------------

def test_parse_round_trip():
    plan = parse_fault_plan(
        "seed=42;cell_loss(rate=0.01);link_down(src=0,dst=1,from_ns=0,to_ns=1e6)"
    )
    assert plan.seed == 42
    assert plan.schedules == (
        CellLoss(rate=0.01),
        LinkDown(src=0, dst=1, from_ns=0, to_ns=1e6),
    )


def test_parse_all_schedule_types():
    plan = parse_fault_plan(
        "cell_loss(nth=100,src=0,dst=1);cell_corrupt(rate=0.5);"
        "nic_stall(node=2,from_ns=0,to_ns=5e5)"
    )
    kinds = [type(s) for s in plan.schedules]
    assert kinds == [CellLoss, CellCorrupt, NicStall]
    assert plan.schedules[0].nth == 100
    assert plan.seed == 0


@pytest.mark.parametrize("spec", [
    "bogus(rate=0.1)",            # unknown schedule
    "cell_loss(rate=2.0)",        # invalid rate
    "cell_loss()",                # needs rate or nth
    "cell_loss(rate=0.1",         # unbalanced parens
    "cell_loss(rate=abc)",        # not a number
    "cell_loss(rate)",            # not key=value
    "cell_loss(nth=1.5)",         # integer key
    "rate=0.1",                   # bare clause must be seed=
    "cell_loss(wat=1)",           # unknown keyword
])
def test_parse_rejects_bad_specs(spec):
    with pytest.raises(ValueError):
        parse_fault_plan(spec)


def test_parse_empty_spec_is_empty_plan():
    plan = parse_fault_plan("")
    assert plan == FaultPlan()
