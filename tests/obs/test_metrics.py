"""Unit tests for the metrics registry: counters, gauges, histograms,
scopes, probes and the dotted-hierarchy merge."""

import json

import pytest

from repro.obs import (
    DEFAULT_LATENCY_BUCKETS_NS,
    MetricError,
    MetricsRegistry,
    MetricTemplate,
    private_scope,
)


# -- counters ------------------------------------------------------------------

def test_counter_increments_and_defaults_to_zero():
    r = MetricsRegistry()
    c = r.counter("hits")
    assert c.value == 0
    c.inc()
    c.inc(4)
    assert c.value == 5


def test_counter_rejects_negative_increment():
    c = MetricsRegistry().counter("hits")
    with pytest.raises(MetricError):
        c.inc(-1)


def test_counter_function_sourced_reads_live_state():
    state = {"n": 0}
    c = MetricsRegistry().counter("hits", fn=lambda: state["n"])
    assert c.value == 0
    state["n"] = 7
    assert c.value == 7


def test_counter_function_sourced_rejects_inc():
    c = MetricsRegistry().counter("hits", fn=lambda: 1)
    with pytest.raises(MetricError):
        c.inc()


def test_counter_get_or_create_returns_same_object():
    r = MetricsRegistry()
    assert r.counter("a.b") is r.counter("a.b")


# -- gauges --------------------------------------------------------------------

def test_gauge_set_and_track_max():
    g = MetricsRegistry().gauge("depth")
    g.set(3)
    g.track_max(10)
    g.track_max(2)          # lower: no effect
    assert g.value == 10
    g.set(1)                # set always overwrites
    assert g.value == 1


def test_gauge_function_sourced_rejects_writes():
    g = MetricsRegistry().gauge("depth", fn=lambda: 5)
    assert g.value == 5
    with pytest.raises(MetricError):
        g.set(1)
    with pytest.raises(MetricError):
        g.track_max(9)


# -- histograms ----------------------------------------------------------------

def test_histogram_buckets_and_overflow():
    h = MetricsRegistry().histogram("lat", buckets=(10, 100, 1000))
    for v in (5, 10, 11, 5000):
        h.observe(v)
    snap = h.value
    assert snap["count"] == 4
    assert snap["sum"] == 5026
    assert snap["buckets"] == {"10": 2, "100": 1, "1000": 0, "+inf": 1}


def test_histogram_mean_and_quantile():
    h = MetricsRegistry().histogram("lat", buckets=(10, 100, 1000))
    assert h.mean == 0.0 and h.quantile(0.5) == 0.0
    for v in (1, 2, 3, 500):
        h.observe(v)
    assert h.mean == pytest.approx(126.5)
    assert h.quantile(0.5) == 10       # bucket upper bound
    assert h.quantile(1.0) == 1000
    with pytest.raises(MetricError):
        h.quantile(1.5)


def test_histogram_rejects_bad_buckets():
    r = MetricsRegistry()
    with pytest.raises(MetricError):
        r.histogram("bad", buckets=())
    with pytest.raises(MetricError):
        r.histogram("bad2", buckets=(10, 10))


def test_histogram_default_buckets_are_latency_spectrum():
    h = MetricsRegistry().histogram("lat")
    assert h.bounds == DEFAULT_LATENCY_BUCKETS_NS
    assert h.bounds[0] == 250.0 and h.bounds[-1] == 1_000_000.0


# -- registry semantics --------------------------------------------------------

def test_kind_conflict_raises():
    r = MetricsRegistry()
    r.counter("x")
    with pytest.raises(MetricError):
        r.gauge("x")
    with pytest.raises(MetricError):
        r.histogram("x")


def test_bad_names_rejected():
    r = MetricsRegistry()
    for bad in ("", ".x", "x."):
        with pytest.raises(MetricError):
            r.counter(bad)


def test_names_filters_by_dotted_prefix():
    r = MetricsRegistry()
    for name in ("node0.nic.hits", "node0.bus.dma", "node10.nic.hits"):
        r.counter(name)
    assert r.names("node0") == ["node0.bus.dma", "node0.nic.hits"]
    # "node1" must not match "node10.*"
    assert r.names("node1") == []
    assert "node0.nic.hits" in r
    assert r.get("nope") is None


def test_snapshot_is_plain_json_safe_data():
    r = MetricsRegistry()
    r.counter("c").inc(2)
    r.gauge("g").set(1.5)
    r.histogram("h", buckets=(10,)).observe(3)
    snap = r.snapshot()
    assert snap["c"] == 2 and snap["g"] == 1.5
    assert snap["h"]["count"] == 1
    json.dumps(snap)  # must not raise


def test_as_tree_nests_by_segment():
    r = MetricsRegistry()
    r.counter("node0.nic.hits").inc(3)
    r.gauge("engine.qlen").set(2)
    tree = r.as_tree()
    assert tree["node0"]["nic"]["hits"] == 3
    assert tree["engine"]["qlen"] == 2


def test_probe_runs_before_snapshot_and_is_idempotent():
    r = MetricsRegistry()
    bag = {"late_metric": 4}
    r.add_probe(lambda reg: [
        reg.counter(k, fn=lambda k=k: bag[k]) for k in bag])
    assert r.snapshot()["late_metric"] == 4
    bag["late_metric"] = 9
    assert r.snapshot()["late_metric"] == 9   # second snapshot: no conflict


# -- scopes --------------------------------------------------------------------

def test_scope_prefixes_and_nests():
    r = MetricsRegistry()
    node = r.scope("node3")
    nic = node.scope("nic")
    nic.counter("hits").inc()
    node.gauge("qlen").set(2)
    assert r.snapshot() == {"node3.nic.hits": 1, "node3.qlen": 2}


def test_empty_scope_is_transparent():
    r = MetricsRegistry()
    r.scope("").counter("hits").inc()
    assert "hits" in r


def test_bad_scope_prefix_rejected():
    r = MetricsRegistry()
    with pytest.raises(MetricError):
        r.scope(".x")


def test_private_scope_isolates_components():
    a, b = private_scope(), private_scope()
    a.counter("hits").inc()
    b.counter("hits").inc(5)
    assert a.registry.snapshot() == {"hits": 1}
    assert b.registry.snapshot() == {"hits": 5}


# -- merge (cross-node / cross-run aggregation) --------------------------------

def test_merge_sums_counters_maxes_gauges_adds_histograms():
    a, b, total = MetricsRegistry(), MetricsRegistry(), MetricsRegistry()
    for reg, hits, hwm, lat in ((a, 3, 5, 20), (b, 4, 9, 200)):
        reg.counter("hits").inc(hits)
        reg.gauge("hwm").set(hwm)
        reg.histogram("lat", buckets=(100, 1000)).observe(lat)
    total.merge(a)
    total.merge(b)
    snap = total.snapshot()
    assert snap["hits"] == 7
    assert snap["hwm"] == 9
    assert snap["lat"]["count"] == 2
    assert snap["lat"]["buckets"] == {"100": 1, "1000": 1, "+inf": 0}


def test_merge_under_prefix_builds_hierarchy():
    total = MetricsRegistry()
    for i in range(3):
        node = MetricsRegistry()
        node.counter("nic.hits").inc(i + 1)
        total.merge(node, prefix=f"node{i}")
    assert total.snapshot() == {
        "node0.nic.hits": 1, "node1.nic.hits": 2, "node2.nic.hits": 3}


def test_merge_kind_conflict_raises():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.counter("x")
    b.gauge("x").set(1)
    with pytest.raises(MetricError):
        a.merge(b)


def test_merge_incompatible_histogram_buckets_raises():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.histogram("lat", buckets=(10,))
    b.histogram("lat", buckets=(20,))
    with pytest.raises(MetricError):
        a.merge(b)


def test_merge_into_function_sourced_raises():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.counter("x", fn=lambda: 1)
    b.counter("x").inc()
    with pytest.raises(MetricError):
        a.merge(b)


# -- templates -------------------------------------------------------------------

class _Source:
    hits = 3
    lookups = 5


TEMPLATE = MetricTemplate(
    ("counter", "hits", "hits"),
    ("counter", "misses", lambda s: s.lookups - s.hits),
    ("gauge", "level", None),
    ("histogram", "lat_ns", None),
)


def test_template_registers_like_one_by_one_calls():
    bulk, single = MetricsRegistry(), MetricsRegistry()
    src = _Source()
    got = bulk.scope("node3").register(TEMPLATE, src)
    got["level"].set(7.0)
    got["lat_ns"].observe(300.0)
    scope = single.scope("node3")
    scope.counter("hits", fn=lambda: src.hits)
    scope.counter("misses", fn=lambda: src.lookups - src.hits)
    scope.gauge("level").set(7.0)
    scope.histogram("lat_ns").observe(300.0)
    assert bulk.snapshot() == single.snapshot()
    assert bulk.kinds() == single.kinds()
    assert list(got) == ["hits", "misses", "level", "lat_ns"]


def test_template_register_is_get_or_create():
    r = MetricsRegistry()
    first = r.register(TEMPLATE, "n", _Source())
    again = r.register(TEMPLATE, "n", _Source())
    assert all(first[k] is again[k] for k in first)
    r.gauge("m.hits")
    with pytest.raises(MetricError):
        r.register(TEMPLATE, "m", _Source())
    with pytest.raises(MetricError):
        r.register(TEMPLATE, "bad.", _Source())


@pytest.mark.parametrize("entries", [
    (("counter", "", None),),
    (("counter", "a.", None),),
    (("timer", "a", None),),
    (("counter", "a", None), ("gauge", "a", None)),
    (("histogram", "h", "attr"),),
])
def test_template_validates_once_at_build(entries):
    with pytest.raises(MetricError):
        MetricTemplate(*entries)
