"""Cluster construction stays linear in the node count.

Per-node state that a workload may never touch is created on first use
(DSM interval lanes, cache tag arrays), state identical on every node is
shared (the PATHFINDER program), and per-node metrics come from
templates that keep the catalog unchanged.
"""

import hashlib
import json
import tracemalloc

from repro.params import SimParams
from repro.runtime import Cluster

#: sha256 of the sorted ``(name, kind)`` catalog of a p=64
#: ``fattree:k=8`` cluster, per interface, before any run.
CATALOG_SHA256 = {
    "cni": "aa0d838984b8d648e97c002aae850fb577bdf0c627abc231cea9955bb5c73c19",
    "standard":
        "9189794d6124a808f47f5224b1099ea0345a597602f087430242fa58f36f7fac",
}


def _build(p, topology):
    return Cluster(SimParams().replace(num_processors=p, topology=topology))


def test_constructed_cluster_holds_no_lanes_or_cache_arrays():
    cluster = _build(512, "torus:8x8x8")
    for node in cluster.nodes:
        assert node.engine.ilog._log == {}
        for level in (node.cache.l1, node.cache.l2):
            assert level._tags is None and level._dirty is None
    roots = {id(node.nic.pathfinder._root) for node in cluster.nodes}
    assert len(roots) == 1
    assert cluster.nodes[0].nic.pathfinder.pattern_count == 32


def test_a_run_creates_state_on_first_use():
    cluster = _build(2, None)
    arr = cluster.alloc_shared((2, 512))

    def kernel(ctx):
        yield from ctx.write_runs([(arr.base_vaddr + 4096 * ctx.rank, 64)])
        yield from ctx.barrier()

    cluster.run(kernel)
    for node in cluster.nodes:
        assert node.cache.l2._tags is not None
        assert sorted(node.engine.ilog._log) == [0, 1]


def test_construction_bytes_per_node_do_not_grow_with_n():
    """No N^2 term: bytes per node at p=1024 within 1.25x of p=128."""
    _build(8, None)  # warm imports and caches outside the measurement
    per_node = {}
    for p, topo in ((128, "fattree:k=8"), (1024, "fattree:k=16")):
        tracemalloc.start()
        cluster = _build(p, topo)
        per_node[p] = tracemalloc.get_traced_memory()[0] / p
        tracemalloc.stop()
        del cluster
    assert per_node[1024] <= 1.25 * per_node[128], per_node


def test_metric_catalog_is_pinned():
    for iface, want in CATALOG_SHA256.items():
        cluster = Cluster(
            SimParams().replace(num_processors=64, topology="fattree:k=8"),
            iface)
        catalog = sorted(cluster.metrics.kinds().items())
        got = hashlib.sha256(json.dumps(catalog).encode()).hexdigest()
        assert got == want, iface
