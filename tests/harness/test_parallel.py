"""The parallel sweep executor: determinism, ordering, metric merging,
and the warm-pool lifecycle (spawn-once reuse, chunked dispatch,
no-orphan teardown)."""

import pickle

import pytest

from repro.apps import JacobiConfig
from repro.harness import (
    GLOBAL_METRICS_LOG,
    RunFailure,
    RunSpec,
    default_jobs,
    execute_run,
    merge_run_metrics,
    pool_metrics,
    pool_size,
    run_map,
    set_default_jobs,
    shutdown_pool,
)
from repro.harness.parallel import _chunksize, _encode_chunk
from repro.params import SimParams


@pytest.fixture(autouse=True)
def _force_pool(monkeypatch):
    """Exercise the real pool even on a 1-core host — the cpu-aware
    clamp would otherwise route jobs>1 inline (docs/parallel_runs.md)."""
    monkeypatch.setenv("REPRO_POOL_FORCE", "1")


def specs_grid(procs=(1, 2), ifaces=("cni", "standard")):
    wl = JacobiConfig(n=32, iterations=2)
    return [RunSpec("jacobi", SimParams().replace(num_processors=p),
                    iface, wl)
            for p in procs for iface in ifaces]


# -- determinism ---------------------------------------------------------------

def test_jobs_1_and_jobs_n_digests_identical():
    """The executor's core guarantee: per-point RunStats.digest() values
    are bit-identical between the in-process path and a process pool."""
    specs = specs_grid()
    serial = run_map(specs, jobs=1, record=False)
    parallel = run_map(specs, jobs=4, record=False)
    assert [s.digest() for s in serial] == [s.digest() for s in parallel]


def test_results_preserve_spec_order():
    specs = specs_grid(procs=(2, 1, 4), ifaces=("cni",))
    runs = run_map(specs, jobs=2, record=False)
    # each spec's processor count is visible in its per_processor list
    assert [len(r.per_processor) for r in runs] == [2, 1, 4]


def test_execute_run_is_the_jobs_1_path():
    spec = specs_grid()[0]
    assert execute_run(spec, 0).digest() == \
        run_map([spec], jobs=1, record=False)[0].digest()


# -- the spec ------------------------------------------------------------------

def test_runspec_is_picklable():
    spec = specs_grid()[0]
    clone = pickle.loads(pickle.dumps(spec))
    assert clone == spec


def test_unknown_app_rejected():
    spec = RunSpec("fortran_weather_model", SimParams(), "cni", None)
    with pytest.raises(ValueError, match="unknown app"):
        execute_run(spec)


def test_bad_jobs_rejected():
    with pytest.raises(ValueError):
        run_map(specs_grid(), jobs=0)
    with pytest.raises(ValueError):
        set_default_jobs(0)


def test_empty_spec_list():
    assert run_map([], jobs=4) == []


def test_default_jobs_setting_round_trips():
    before = default_jobs()
    try:
        assert set_default_jobs(3) == 3
        assert default_jobs() == 3
        assert set_default_jobs(None) >= 1  # None -> all cores
    finally:
        set_default_jobs(before)


# -- parent-side recording -----------------------------------------------------

def test_run_map_records_with_digest():
    GLOBAL_METRICS_LOG.clear()
    specs = specs_grid(procs=(2,), ifaces=("cni",))
    runs = run_map(specs, jobs=1)
    try:
        assert len(GLOBAL_METRICS_LOG) == 1
        entry = GLOBAL_METRICS_LOG.entries[0]
        assert entry["app"] == "jacobi"
        assert entry["interface"] == "cni"
        assert entry["nprocs"] == 2
        assert entry["digest"] == runs[0].digest()
        assert entry["metrics"] == runs[0].metrics
    finally:
        GLOBAL_METRICS_LOG.clear()


def test_run_map_meta_lands_in_log():
    GLOBAL_METRICS_LOG.clear()
    spec = RunSpec("jacobi", SimParams().replace(num_processors=2), "cni",
                   JacobiConfig(n=32, iterations=2),
                   meta=(("cell_loss_rate", 0.01),))
    run_map([spec], jobs=1)
    try:
        assert GLOBAL_METRICS_LOG.entries[0]["cell_loss_rate"] == 0.01
    finally:
        GLOBAL_METRICS_LOG.clear()


# -- metric-tree merging -------------------------------------------------------

def test_merge_run_metrics_counters_sum_gauges_max():
    runs = run_map(specs_grid(procs=(1, 2), ifaces=("cni",)), record=False)
    merged = merge_run_metrics(runs)
    events = merged.get("engine.events_processed")
    assert events.kind == "counter"
    assert events.value == sum(r.metrics["engine.events_processed"]
                               for r in runs)
    hwm = merged.get("engine.event_queue_hwm")
    assert hwm.kind == "gauge"
    assert hwm.value == max(r.metrics["engine.event_queue_hwm"]
                            for r in runs)


def test_merge_run_metrics_histograms_add_bucketwise():
    runs = run_map(specs_grid(procs=(2, 2), ifaces=("cni",)), record=False)
    merged = merge_run_metrics(runs)
    hist = merged.get("spans.dma_ns")
    assert hist.kind == "histogram"
    assert hist.count == sum(r.metrics["spans.dma_ns"]["count"]
                             for r in runs)
    assert hist.sum == pytest.approx(sum(r.metrics["spans.dma_ns"]["sum"]
                                         for r in runs))


def test_merge_into_existing_registry_with_prefix():
    from repro.obs import MetricsRegistry

    runs = run_map(specs_grid(procs=(2,), ifaces=("cni",)), record=False)
    target = MetricsRegistry()
    merge_run_metrics(runs, into=target, prefix="sweep")
    assert "sweep.engine.events_processed" in target


# -- warm-pool lifecycle -------------------------------------------------------

def _pool_stat(name):
    return pool_metrics()[f"harness.pool.{name}"]


def test_warm_pool_reused_across_run_map_calls():
    """Consecutive run_map calls share one pool (a single cold start)
    and stay digest-identical to the --jobs 1 path throughout."""
    shutdown_pool()
    specs = specs_grid()
    baseline = [s.digest() for s in run_map(specs, jobs=1, record=False)]
    spawns0 = _pool_stat("spawns")
    try:
        first = run_map(specs, jobs=2, record=False)
        second = run_map(specs, jobs=2, record=False)
        assert [s.digest() for s in first] == baseline
        assert [s.digest() for s in second] == baseline
        assert _pool_stat("spawns") == spawns0 + 1
        assert pool_size() >= 2
    finally:
        shutdown_pool()
    assert pool_size() == 0


def test_pool_reuse_counts_warm_hits():
    shutdown_pool()
    specs = specs_grid(procs=(1, 2), ifaces=("cni",))
    try:
        run_map(specs, jobs=2, record=False)       # cold start
        warm0 = _pool_stat("warm_hits")
        run_map(specs, jobs=2, record=False)       # warm hit
        assert _pool_stat("warm_hits") == warm0 + 1
    finally:
        shutdown_pool()


def test_chunked_dispatch_preserves_spec_and_log_order():
    """chunksize=1 maximizes out-of-order completion; results and the
    parent-side metrics-log recording must still land in spec order."""
    specs = specs_grid(procs=(4, 1, 2), ifaces=("cni",))
    GLOBAL_METRICS_LOG.clear()
    serial = run_map(specs, jobs=1)
    serial_digests = [e["digest"] for e in GLOBAL_METRICS_LOG.entries]
    GLOBAL_METRICS_LOG.clear()
    try:
        chunked = run_map(specs, jobs=2, chunksize=1)
        assert [len(r.per_processor) for r in chunked] == [4, 1, 2]
        assert [r.digest() for r in chunked] == \
            [r.digest() for r in serial]
        assert [e["digest"] for e in GLOBAL_METRICS_LOG.entries] == \
            serial_digests
    finally:
        GLOBAL_METRICS_LOG.clear()
        shutdown_pool()


def test_any_chunksize_is_digest_identical():
    specs = specs_grid()
    baseline = [s.digest() for s in run_map(specs, jobs=1, record=False)]
    try:
        for cs in (1, 3, len(specs)):
            runs = run_map(specs, jobs=2, record=False, chunksize=cs)
            assert [r.digest() for r in runs] == baseline, f"chunksize={cs}"
    finally:
        shutdown_pool()


def test_bad_chunksize_rejected():
    with pytest.raises(ValueError):
        run_map(specs_grid(), jobs=2, record=False, chunksize=0)


def test_chunksize_heuristic_targets_two_chunks_per_worker():
    assert _chunksize(8, 2) == 2
    assert _chunksize(8, 4) == 1
    assert _chunksize(1, 8) == 1
    assert _chunksize(100, 4) == 13


def test_chunk_encoding_pickles_shared_objects_once():
    wl = JacobiConfig(n=32, iterations=2)
    params = SimParams().replace(num_processors=2)
    specs = [RunSpec("jacobi", params, iface, wl)
             for iface in ("cni", "standard")]
    _, shared, points = _encode_chunk(0, specs, "raise")
    assert len(shared) == 2  # one params + one workload, not four objects
    assert [p[0] for p in points] == [0, 1]  # global indices preserved
    # value-equal but distinct params objects dedupe too
    specs2 = [RunSpec("jacobi", SimParams().replace(num_processors=2),
                      "cni", wl) for _ in range(3)]
    _, shared2, _ = _encode_chunk(4, specs2, "raise")
    assert len(shared2) == 2


def test_untyped_error_tears_pool_down_without_orphans():
    """A worker raising a non-simulation error (here: unknown app)
    aborts the sweep, shuts the pool down, and the next run_map
    cold-starts cleanly."""
    shutdown_pool()
    good = specs_grid(procs=(1,), ifaces=("cni",))[0]
    bomb = RunSpec("no_such_app", SimParams(), "cni", None)
    spawns0 = _pool_stat("spawns")
    with pytest.raises(ValueError, match="unknown app"):
        run_map([good, bomb, good], jobs=2, record=False, chunksize=1)
    assert pool_size() == 0
    try:
        runs = run_map([good, good], jobs=2, record=False)
        assert runs[0].digest() == runs[1].digest()
        assert _pool_stat("spawns") == spawns0 + 2  # broken pool + fresh one
    finally:
        shutdown_pool()


def test_on_error_record_deterministic_through_the_pool():
    """Typed failures stay deterministic RunFailure slots in spec order
    at any jobs/chunksize (the chaos campaign checks the same contract
    at scale under -m chaos)."""
    from repro.faults import FaultPlan, NodeCrash

    base = SimParams().replace(
        num_processors=2, reliable_transport=True,
        op_deadline_ns=20_000_000.0, runtime_send_retries=1)
    crash = FaultPlan(seed=5,
                      schedules=(NodeCrash(node=1, at_ns=200_000.0),))
    wl = JacobiConfig(n=16, iterations=1)
    specs = [
        RunSpec("jacobi", base, "cni", wl),
        RunSpec("jacobi", base.replace(fault_plan=crash), "cni", wl),
        RunSpec("jacobi", base, "standard", wl),
    ]
    serial = run_map(specs, jobs=1, record=False, on_error="record")
    try:
        pooled = run_map(specs, jobs=2, record=False, on_error="record",
                         chunksize=1)
        assert [r.digest() for r in serial] == [r.digest() for r in pooled]
        assert [isinstance(r, RunFailure) for r in serial] == \
            [isinstance(r, RunFailure) for r in pooled]
        assert isinstance(serial[1], RunFailure), \
            "the crash plan should kill its point"
    finally:
        shutdown_pool()


def test_typed_error_crosses_the_pool_intact():
    """A worker's DeliveryFailed reaches the parent as itself, not as a
    BrokenProcessPool hiding the cause."""
    from repro.core import DeliveryFailed
    from repro.faults import CellLoss, FaultPlan

    lossy = SimParams().replace(
        num_processors=2, reliable_transport=True, reliab_max_attempts=1,
        fault_plan=FaultPlan(seed=3, schedules=(CellLoss(rate=0.3),)))
    wl = JacobiConfig(n=32, iterations=2)
    specs = [RunSpec("jacobi", lossy, "cni", wl),
             RunSpec("jacobi", lossy, "standard", wl)]
    try:
        with pytest.raises(DeliveryFailed) as info:
            run_map(specs, jobs=2, record=False, chunksize=1)
        assert info.value.attempts == 1
        assert "delivery failed" in str(info.value)
    finally:
        shutdown_pool()


def test_shutdown_pool_is_idempotent():
    shutdown_pool()
    shutdown_pool()
    assert pool_size() == 0
