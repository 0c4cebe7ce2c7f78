"""Unit tests for the application Context."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Category
from repro.memory import lines_in_range
from repro.params import SimParams
from repro.runtime import Cluster


def cluster_and_array(nprocs=1, iface="cni"):
    params = SimParams().replace(
        num_processors=nprocs, dsm_address_space_pages=32
    )
    cluster = Cluster(params, interface=iface)
    arr = cluster.alloc_shared((4, 512))
    return cluster, arr


def test_compute_charges_exact_time():
    cluster, _ = cluster_and_array()

    def kernel(ctx):
        t0 = ctx.sim.now
        yield from ctx.compute(166e6)  # one second of cycles
        assert ctx.sim.now - t0 == pytest.approx(1e9)

    cluster.run(kernel)
    acc = cluster.nodes[0].account
    assert acc.ns[Category.COMPUTATION] == pytest.approx(1e9)


def test_compute_rejects_negative():
    cluster, _ = cluster_and_array()

    def kernel(ctx):
        with pytest.raises(ValueError):
            yield from ctx.compute(-1)
        yield from ctx.compute(0)

    cluster.run(kernel)


def test_access_runs_touches_cache():
    cluster, arr = cluster_and_array()
    node = cluster.nodes[0]

    def kernel(ctx):
        yield from ctx.read_runs([(arr.base_vaddr, 4096)])
        cold = node.cache.stats_memory
        assert cold == 128  # every line missed once
        yield from ctx.read_runs([(arr.base_vaddr, 4096)])
        assert node.cache.stats_memory == cold  # all hits now

    cluster.run(kernel)


def test_write_runs_record_into_collector():
    cluster, arr = cluster_and_array()
    node = cluster.nodes[0]

    def kernel(ctx):
        yield from ctx.write_runs([(arr.base_vaddr + 100, 50)])
        assert node.engine.collector.modified_bytes(0) == 50

    cluster.run(kernel)


def test_write_spanning_pages_records_both():
    cluster, arr = cluster_and_array()
    node = cluster.nodes[0]

    def kernel(ctx):
        # 200 bytes straddling the page boundary at 4096
        yield from ctx.write_runs([(arr.base_vaddr + 4000, 200)])
        assert node.engine.collector.modified_bytes(0) == 96
        assert node.engine.collector.modified_bytes(1) == 104

    cluster.run(kernel)


def test_access_outside_segment_rejected():
    cluster, arr = cluster_and_array()

    def kernel(ctx):
        with pytest.raises(ValueError):
            yield from ctx.read_runs([(0, 64)])  # private segment
        yield from ctx.compute(0)

    cluster.run(kernel)


def test_empty_runs_are_noops():
    cluster, arr = cluster_and_array()

    def kernel(ctx):
        t0 = ctx.sim.now
        yield from ctx.read_runs([])
        yield from ctx.write_runs([(arr.base_vaddr, 0)])
        assert ctx.sim.now == t0

    cluster.run(kernel)


def test_read_faults_count_once_per_page():
    cluster, arr = cluster_and_array(nprocs=2)
    counts = {}

    def kernel(ctx):
        if ctx.rank == 1:
            # pages 0..3 are round-robin homed; node 1 owns 1 and 3
            yield from ctx.read_runs([(arr.base_vaddr, 4 * 4096)])
            counts["faults"] = ctx.node.counters["dsm_faults"]
            # re-read: no new faults
            yield from ctx.read_runs([(arr.base_vaddr, 4 * 4096)])
            counts["faults2"] = ctx.node.counters["dsm_faults"]
        yield from ctx.barrier()

    cluster.run(kernel)
    assert counts["faults"] == 2  # pages 0 and 2 fetched from node 0
    assert counts["faults2"] == counts["faults"]


EDGES = [0, 1, 31, 32, 33, 4064, 4095, 4096, 4097, 8191, 3 * 4096]


@given(st.lists(st.tuples(st.integers(0, 20), st.sampled_from(EDGES),
                          st.sampled_from(EDGES)), max_size=6))
@settings(max_examples=60, deadline=None)
def test_access_runs_faults_each_touched_page_once_in_order(runs):
    """The pages faulted are ``unique(lines // lines_per_page)`` over
    the runs' line stream: straddling runs touch both pages, zero-length
    runs touch none."""
    cluster, arr = cluster_and_array()
    engine = cluster.nodes[0].engine
    faulted = []

    def fault(page, for_write):
        faulted.append(page)
        return
        yield

    engine.page_accessible = lambda page, for_write: False
    engine.fault = fault
    runs = [(arr.base_vaddr + page * 4096 + off, nbytes)
            for page, off, nbytes in runs]

    def kernel(ctx):
        yield from ctx.read_runs(runs)

    cluster.run(kernel)
    lines = [lines_in_range(v, n, 32) for v, n in runs if n > 0]
    want = (np.unique(np.concatenate(lines) // 128)
            - arr.base_vaddr // 4096) if lines else []
    assert faulted == list(want)


def test_access_outside_segment_names_page_and_size():
    cluster, arr = cluster_and_array()

    def kernel(ctx):
        with pytest.raises(ValueError, match="page 32 outside the DSM "
                                             "segment of 32 pages"):
            yield from ctx.read_runs([(arr.base_vaddr + 31 * 4096, 8192)])
        yield from ctx.compute(0)

    cluster.run(kernel)
