"""The benchmark's three workloads, generated from ``--seed``.

Each workload is a pinned run list.  One *pass* executes the whole list
once and returns its host-time figures, the simulated counts summed over
the list, and what the correctness gate found.  README.md says why each
workload was chosen and which layers it exercises.
"""

from __future__ import annotations

import contextlib
import gc
import math
import random
import tempfile
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import SimParams
from repro.apps import (CholeskyConfig, HaloConfig, JacobiConfig,
                        PingPongConfig, TransposeConfig, WaterConfig)
from repro.apps.matrices import bcsstk14_like
from repro.collectives import CollBenchConfig
from repro.faults import parse_fault_plan
import repro.harness as harness
from repro.harness import RunFailure, RunSpec
from repro.harness.paper import PAPER_OVERHEAD_TABLES
from repro.service import RunFarm, service_metrics

from .trace import Recorder

#: The seed whose digests are pinned in pinned.json.
DEFAULT_SEED = 0

#: Warm resubmissions of the farm batch per pass (24 hits).  Every warm
#: hit rewrites the store index on disk, and disk latency on the
#: reference box drifts with sustained writes, so one round keeps the
#: pass dominated by the cold batch; a 30 s run still collects well over
#: 200 hits, so the p95 hit latency has at least ten samples beyond it.
FARM_WARM_ROUNDS = 1

#: Jobs of the cold farm batch submitted twice, to exercise coalescing.
FARM_DUPLICATES = 2


@dataclass(frozen=True)
class Item:
    """One pinned run of a workload."""

    label: str
    spec: RunSpec
    seeded: bool
    """Whether the run's digest depends on ``--seed``."""


@dataclass
class PassResult:
    """What one pass over a workload's run list measured."""

    run_s: float
    setup_s: float
    events: int
    sim: Dict[str, float]
    attempted: int
    failures: List[str] = field(default_factory=list)
    hit_latencies_ms: List[float] = field(default_factory=list)
    elapsed_ns: Dict[str, float] = field(default_factory=dict)
    bench_s: float = 0.0
    """Time the pass spent on the benchmark's own bookkeeping (garbage
    collection between runs, gate checks, tallies, scratch files),
    outside ``run_s``."""


class Gate:
    """The correctness gate: every run must finish, and its
    ``RunStats.digest()`` must equal the pinned digest (runs that do not
    depend on the seed, and every run at :data:`DEFAULT_SEED`) or, for
    seeded runs at other seeds, the digest the same run produced the
    first time in this process.  With ``pinned=None`` the gate only
    records digests (``run.py --write-pins``)."""

    def __init__(self, pinned: Optional[Dict[str, str]], seed: int) -> None:
        self.pinned = pinned
        self.seed = seed
        self.seen: Dict[str, str] = {}

    def check(self, item: Item, result: Any) -> Optional[str]:
        """None when ``result`` is right, else why it is not."""
        if isinstance(result, BaseException):
            return f"{item.label}: raised {type(result).__name__}: {result}"
        if isinstance(result, RunFailure):
            return f"{item.label}: {result.error_type}: {result.message}"
        digest = result.digest()
        if self.pinned is not None and (self.seed == DEFAULT_SEED
                                        or not item.seeded):
            want = self.pinned.get(item.label)
            if want is None:
                return f"{item.label}: no pinned digest"
            if digest != want:
                return (f"{item.label}: digest {digest[:16]} != pinned "
                        f"{want[:16]}")
        first = self.seen.setdefault(item.label, digest)
        if digest != first:
            return (f"{item.label}: digest {digest[:16]} differs from an "
                    f"earlier repeat {first[:16]}")
        return None


# -- simulated counts -----------------------------------------------------

#: Simulated per-layer counts, taken from ``RunStats``; summed over the
#: run list except where :meth:`SimTally.counts` says otherwise.
SIM_COUNTS: Tuple[str, ...] = (
    "engine.events", "engine.queue_hwm", "memory.bus_busy_frac",
    "dsm.faults", "dsm.page_fetches", "dsm.diff_fetches",
    "core.mcache_hit_ratio", "core.mcache_lookups",
    "core.pathfinder_misses", "core.aih_dispatches",
    "core.reliab_retransmits", "network.crossings", "network.hol_blocks",
    "collectives.ops_completed", "runtime.eager_sends",
    "runtime.rendezvous_sends", "service.hit_ratio", "service.lookups",
    "service.coalesced",
)

_NODE_SUMS = {
    "core.pathfinder_misses": ".nic.pathfinder.misses",
    "core.aih_dispatches": ".nic.aih.dispatches",
    "core.reliab_retransmits": ".nic.reliab.retransmits",
    "collectives.ops_completed": ".coll.ops_completed",
    "runtime.eager_sends": ".runtime.eager_sends",
    "runtime.rendezvous_sends": ".runtime.rendezvous_sends",
}


class SimTally:
    """Accumulates the simulated counts of a run list."""

    def __init__(self) -> None:
        self.sums: Dict[str, float] = {name: 0 for name in SIM_COUNTS}
        self.bus_busy_ns = 0.0
        self.bus_capacity_ns = 0.0
        self.mc_hits = 0

    def add(self, stats: Any) -> None:
        m = stats.metrics
        s = self.sums
        s["engine.events"] += m.get("engine.events_processed", 0)
        s["engine.queue_hwm"] = max(s["engine.queue_hwm"],
                                    m.get("engine.event_queue_hwm", 0))
        s["dsm.faults"] += m.get("cluster.dsm_faults", 0)
        s["dsm.page_fetches"] += m.get("cluster.dsm_page_fetches", 0)
        s["dsm.diff_fetches"] += stats.counters.get("dsm_diff_fetches")
        s["core.mcache_lookups"] += m.get("cluster.mc_transmit_lookups", 0)
        self.mc_hits += m.get("cluster.mc_transmit_hits", 0)
        s["network.crossings"] += m.get("net.crossings", 0)
        s["network.hol_blocks"] += m.get("net.hol_blocks", 0)
        nodes = len(stats.per_processor)
        sim_ns = m.get("engine.sim_time_ns", stats.elapsed_ns)
        self.bus_capacity_ns += nodes * sim_ns
        for key, value in m.items():
            if not key.startswith("node"):
                continue
            if key.endswith(".bus.utilization_ns"):
                self.bus_busy_ns += value
                continue
            for name, suffix in _NODE_SUMS.items():
                if key.endswith(suffix):
                    s[name] += value
                    break

    def counts(self) -> Dict[str, float]:
        out = dict(self.sums)
        out["memory.bus_busy_frac"] = (self.bus_busy_ns / self.bus_capacity_ns
                                       if self.bus_capacity_ns else 0.0)
        lookups = out["core.mcache_lookups"]
        out["core.mcache_hit_ratio"] = (self.mc_hits / lookups if lookups
                                        else 0.0)
        return out


# -- the workloads --------------------------------------------------------

class Workload:
    """A named run list plus the pass that executes it.  By default a
    pass executes each run through ``execute_run`` in this process."""

    name = ""
    #: Whether every run executes in the benchmark process (its main
    #: thread is then pinned to one CPU; perfbench/hostspeed.py).
    in_process = True
    #: Context manager for stretches when pool workers busy every CPU
    #: (run.py installs ``SpeedProbe.paused``).
    probe_paused = contextlib.nullcontext

    def __init__(self, seed: int, scratch_dir: str) -> None:
        self.scratch_dir = scratch_dir
        self.items = self.make_items(seed)

    def make_items(self, seed: int) -> List[Item]:
        raise NotImplementedError

    def run_pass(self, rec: Recorder, gate: Gate) -> PassResult:
        """Run the list once.  Garbage left by the previous run is
        collected before each run, outside the timed region, so one
        run's heap does not bill the next."""
        tally = SimTally()
        run_s = bench_s = 0.0
        setup0 = rec.cluster_init_s
        failures = []
        elapsed = {}
        for item in self.items:
            t_book = perf_counter()
            gc.collect()
            t0 = perf_counter()
            try:
                result: Any = harness.execute_run(item.spec)
            except Exception as exc:  # a failed run is a result
                result = exc
            t1 = perf_counter()
            run_s += t1 - t0
            problem = gate.check(item, result)
            if problem:
                failures.append(problem)
            else:
                tally.add(result)
                elapsed[item.label] = result.elapsed_ns
            del result
            bench_s += (t0 - t_book) + (perf_counter() - t1)
        counts = tally.counts()
        return PassResult(run_s=run_s, setup_s=rec.cluster_init_s - setup0,
                          events=int(counts["engine.events"]), sim=counts,
                          attempted=len(self.items), failures=failures,
                          elapsed_ns=elapsed, bench_s=bench_s)


class PaperDsm(Workload):
    name = "paper_dsm"

    def make_items(self, seed: int) -> List[Item]:
        params = SimParams().replace(num_processors=8)
        configs = [
            ("jacobi", JacobiConfig(n=1024, iterations=20), False),
            ("water", WaterConfig(n_molecules=216, steps=2, seed=42 + seed),
             True),
            ("cholesky", CholeskyConfig(
                matrix=bcsstk14_like(scale=1.0, seed=14 + seed),
                supernode=16), True),
        ]
        return [Item(f"{app}/{iface}", RunSpec(app, params, iface, cfg),
                     seeded)
                for app, cfg, seeded in configs
                for iface in ("cni", "standard")]

class Fabric1024(Workload):
    name = "fabric_1024"

    def make_items(self, seed: int) -> List[Item]:
        cfg = CollBenchConfig(op="allreduce", rounds=4)
        return [Item(f"collbench/{topo}",
                     RunSpec("collbench", SimParams().replace(
                         num_processors=1024, topology=topo), "cni", cfg),
                     False)
                for topo in ("fattree:k=16", "torus:16x8x8")]

class FarmMessaging(Workload):
    name = "farm_messaging"
    in_process = False

    def make_items(self, seed: int) -> List[Item]:
        pair = SimParams().replace(num_processors=2)
        eight = SimParams().replace(num_processors=8)
        lossy = eight.replace(
            reliable_transport=True,
            fault_plan=parse_fault_plan(f"seed={90 + seed};"
                                        "cell_loss(rate=0.005)"))
        # Long runs (16 ping-pong rounds, 16 halo iterations, 8
        # transpose rounds): every job still writes the same store
        # files, so the simulation, not the filesystem, dominates a pass
        # (file creation and renames slow down under sustained churn on
        # the reference box's disk).
        halo = HaloConfig(iters=16)
        runs: List[Tuple[str, str, SimParams, Any, bool]] = []
        # sizes straddle SimParams.rendezvous_threshold (4096 bytes)
        for mode in ("msg", "read", "write"):
            for size in (2048, 4096, 8192):
                runs.append((f"pingpong-{mode}-{size}", "pingpong", pair,
                             PingPongConfig(rounds=16, message_bytes=size,
                                            mode=mode), False))
        runs.append(("halo-p8", "halo", eight, halo, False))
        runs.append(("transpose-p8", "transpose", eight,
                     TransposeConfig(rounds=8), False))
        runs.append(("halo-p8-cell_loss", "halo", lossy, halo, True))
        items = [Item(f"{label}/{iface}", RunSpec(app, params, iface, cfg),
                      seeded)
                 for label, app, params, cfg, seeded in runs
                 for iface in ("cni", "standard")]
        random.Random(seed).shuffle(items)  # the submission order
        return items

    def run_pass(self, rec: Recorder, gate: Gate) -> PassResult:
        """Cold batch into a fresh store, then one closed-loop client
        resubmitting the batch job by job.  The farm is stepped
        explicitly (``autostart=False``) so the cold batch is dispatched
        as one batch.  The process-wide warm pool outlives the pass, as
        in a serving process: it spawns during the first pass."""
        t_book = perf_counter()
        store_dir = tempfile.mkdtemp(prefix="store-", dir=self.scratch_dir)
        before = service_metrics()
        bench_s = perf_counter() - t_book
        t_setup = perf_counter()
        farm = RunFarm(store=store_dir, workers=2, autostart=False)
        setup_s = perf_counter() - t_setup
        batch = self.items + self.items[:FARM_DUPLICATES]
        warm: List[Tuple[Item, Any]] = []
        latencies: List[float] = []
        try:
            t0 = perf_counter()
            with self.probe_paused():
                ids = [farm.submit(item.spec) for item in batch]
                farm.step()
                cold = [_farm_result(farm, job) for job in ids]
            for _ in range(FARM_WARM_ROUNDS):
                for item in self.items:
                    t = perf_counter()
                    job = farm.submit(item.spec)
                    farm.step()
                    warm.append((item, _farm_result(farm, job)))
                    latencies.append((perf_counter() - t) * 1e3)
            run_s = perf_counter() - t0
        finally:
            farm.close()
        # The store stays until the run's scratch directory is removed:
        # deleting it here would interleave the deletions' disk traffic
        # with the next pass's measured store writes.
        t_book = perf_counter()
        failures, tally = self._check(gate, batch, cold, warm)
        workers = rec.collect_workers()
        after = service_metrics()
        counts = tally.counts()
        hits = _delta(after, before, "service.store.hits")
        lookups = hits + _delta(after, before, "service.store.misses")
        counts["service.lookups"] = lookups
        counts["service.hit_ratio"] = hits / lookups if lookups else 0.0
        counts["service.coalesced"] = _delta(after, before,
                                             "service.jobs.coalesced")
        bench_s += perf_counter() - t_book
        return PassResult(
            run_s=run_s, setup_s=setup_s + workers["cluster_init_s"],
            events=int(counts["engine.events"]), sim=counts,
            attempted=len(batch) + len(warm), failures=failures,
            hit_latencies_ms=latencies, bench_s=bench_s)

    @staticmethod
    def _check(gate: Gate, batch: List[Item], cold: List[Any],
               warm: List[Tuple[Item, Any]]) -> Tuple[List[str], SimTally]:
        """Gate the cold results; coalesced duplicates and warm hits
        must be digest-identical to them."""
        failures: List[str] = []
        tally = SimTally()
        digests: Dict[str, Optional[str]] = {}
        for item, result in zip(batch, cold):
            if item.label in digests:  # a coalesced duplicate
                if _digest(result) != digests[item.label]:
                    failures.append(f"{item.label}: coalesced job differs "
                                    "from its original")
                continue
            digests[item.label] = _digest(result)
            problem = gate.check(item, result)
            if problem:
                failures.append(problem)
            else:
                tally.add(result)
        for item, result in warm:
            if _digest(result) != digests[item.label]:
                failures.append(f"{item.label}: warm hit differs from its "
                                "cold result")
        return failures, tally


def _farm_result(farm: RunFarm, job: str) -> Any:
    try:
        return farm.result(job, timeout=120)
    except (RuntimeError, TimeoutError) as exc:
        return exc


def _digest(result: Any) -> Optional[str]:
    return result.digest() if hasattr(result, "digest") else None


def _delta(after: Dict[str, Any], before: Dict[str, Any], key: str) -> float:
    return after.get(key, 0) - before.get(key, 0)


WORKLOADS: Dict[str, Callable[[int, str], Workload]] = {
    cls.name: cls for cls in (PaperDsm, Fabric1024, FarmMessaging)}


# -- simulated model report -------------------------------------------------

#: paper_dsm app label -> the paper table holding its reference numbers.
PAPER_TABLE_OF = {"jacobi": "table2", "water": "table3",
                  "cholesky": "table4"}


def model_report(elapsed_ns: Dict[str, float]) -> Dict[str, Any]:
    """``sim_cni_gain`` and ``sim_err_pct`` from a paper_dsm pass.

    The CNI/standard ratio of simulated ``elapsed_ns`` per app is
    compared with the paper's CNI/standard ratio of Tables 2-4 total
    time.  ``sim_err_pct`` is the mean of ``|sim - paper| / paper``."""
    ratios, errors, gains = {}, [], []
    for app, table in PAPER_TABLE_OF.items():
        cni = elapsed_ns.get(f"{app}/cni")
        std = elapsed_ns.get(f"{app}/standard")
        if not cni or not std:
            continue
        total = PAPER_OVERHEAD_TABLES[table]["total"]
        paper = total["cni"] / total["standard"]
        sim = cni / std
        ratios[app] = {"sim": sim, "paper": paper}
        errors.append(abs(sim - paper) / paper)
        gains.append(std / cni)
    if not gains:
        return {}
    return {
        "ratios": ratios,
        "sim_cni_gain": math.exp(sum(map(math.log, gains)) / len(gains)),
        "sim_err_pct": 100.0 * sum(errors) / len(errors),
    }
