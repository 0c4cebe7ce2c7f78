"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper_dsm --seed 0 --seconds 30 --trace 0

Run from the repository root; the simulator is imported from ``src/``.
With ``--trace 0`` the workload's run list is repeated, untraced, until
``--seconds`` have passed, and the end-to-end metrics are the medians
over those passes.  With ``--trace 1`` the first half of the time runs
untraced and the second half runs with a span around every layer entry
point (perfbench/trace.py), giving the per-layer metrics.  Every run is
checked against the digests pinned in perfbench/pinned.json.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  README.md documents every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
PINNED = BENCH_DIR / "pinned.json"

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {"run_s": "s", "setup_s": "s", "events_per_s": "events/s",
              "peak_rss_mb": "MiB"}


def parse_args(argv: List[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("paper_dsm", "fabric_1024", "farm_messaging"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-pins", action="store_true",
                    help="run one pass at seed 0 and record its digests "
                         "in pinned.json (after an intended model change)")
    return ap.parse_args(argv)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def peak_rss_mb() -> float:
    """Peak resident set of this process or of any finished child
    (the farm's pool workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


@dataclass
class Pass:
    """One pass over the run list: what the workload measured, the pass
    wall time, and the host slowdown the speed probe saw meanwhile."""

    result: Any
    wall_s: float
    slowdown: float

    @property
    def run_s(self) -> float:
        """``run_s`` at the reference host speed."""
        return self.result.run_s / self.slowdown

    @property
    def setup_s(self) -> float:
        return self.result.setup_s / self.slowdown


def run_passes(workload, rec, gate, probe, seconds: float) -> List[Pass]:
    """Repeat the workload's pass until ``seconds`` have passed (at
    least once)."""
    passes: List[Pass] = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        t0 = perf_counter()
        result = workload.run_pass(rec, gate)
        t1 = perf_counter()
        passes.append(Pass(result, t1 - t0, probe.slowdown(t0, t1)))
    return passes


def failures_of(passes: List[Pass]) -> List[str]:
    return [f for p in passes for f in p.result.failures]


def attempted_of(passes: List[Pass]) -> int:
    return sum(p.result.attempted for p in passes)


def _row(name: str, value: float, unit: str, note: str) -> None:
    print(f"  {name:<14} {value:14.4f} {unit:<9} {note}")


def report_end_to_end(name: str, passes: List[Pass],
                      model: Dict[str, Any]) -> Dict[str, Any]:
    n = len(passes)
    run_s = median([p.run_s for p in passes])
    events = passes[0].result.events
    metrics = {
        "run_s": run_s,
        "setup_s": median([p.setup_s for p in passes]),
        "events_per_s": events / run_s if run_s else 0.0,
        "peak_rss_mb": peak_rss_mb(),
    }
    print(f"perfbench {name}: {n} passes, {attempted_of(passes)} runs; "
          f"host time at reference speed (perfbench/hostspeed.py)")
    _row("run_s", run_s, "s", f"median of {n} passes: "
         + " ".join(f"{p.run_s:.3f}" for p in passes))
    _row("setup_s", metrics["setup_s"], "s", f"median of {n} passes")
    _row("events_per_s", metrics["events_per_s"], "events/s",
         f"{events} events per pass")
    _row("peak_rss_mb", metrics["peak_rss_mb"], "MiB",
         "this process or its largest finished child")
    _row("run_wall_s", median([p.result.run_s for p in passes]), "s",
         "median of the measured wall times: "
         + " ".join(f"{p.result.run_s:.3f}" for p in passes))
    _row("host_slowdown", median([p.slowdown for p in passes]), "ratio",
         "median of the per-pass probe slowdowns: "
         + " ".join(f"{p.slowdown:.3f}" for p in passes))
    failed = len(failures_of(passes))
    _row("failed_frac", failed / attempted_of(passes), "fraction",
         f"{failed} of {attempted_of(passes)} runs")
    lat = [x for p in passes for x in p.result.hit_latencies_ms]
    if lat:
        _row("hit_p50_ms", percentile(lat, 50), "ms",
             f"{len(lat)} warm hits, wall time")
        _row("hit_p95_ms", percentile(lat, 95), "ms",
             f"{len(lat)} warm hits, wall time")
    if model:
        _row("sim_cni_gain", model["sim_cni_gain"], "ratio",
             "simulated: geometric mean over 3 apps of standard/cni")
        _row("sim_err_pct", model["sim_err_pct"], "%",
             "simulated: cni/standard ratio vs paper Tables 2-4")
        for app, r in model["ratios"].items():
            print(f"    {app:<10} cni/standard simulated {r['sim']:.3f}  "
                  f"paper {r['paper']:.3f}")
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}


def report_per_layer(name: str, rec, untraced: List[Pass],
                     traced: List[Pass], slowdown: float,
                     trace_path: Path) -> Dict[str, Any]:
    """Per-layer metrics of the traced passes, per pass; host times are
    scaled to the reference speed by the traced passes' ``slowdown``."""
    from perfbench.trace import LAYERS, SETUP_LAYERS

    workers = rec.workers
    per = len(traced) * slowdown  # divide a host-time total by this
    traced_wall = sum(p.wall_s - p.result.bench_s for p in traced)
    own = rec.layer_totals(rec.self_s)
    calls = rec.layer_totals(rec.calls)
    wself = rec.layer_totals(workers["self_s"])
    setup = {LAYERS[i]: v for i, v in enumerate(rec.setup_self_s)}
    for i, v in enumerate(workers["setup_self_s"]):
        setup[LAYERS[i]] += v
    out: Dict[str, Any] = {}

    def put(key: str, value: float, unit: str) -> None:
        out[key] = {"value": value, "unit": unit}

    for layer in LAYERS:
        put(f"{layer}.self_s", own[layer] / per, "s")
        put(f"{layer}.calls", calls[layer] / len(traced), "count")
        put(f"{layer}.worker_self_s", wself[layer] / per, "s")
    put("untraced.self_s", (traced_wall - rec.top_s) / per, "s")
    sim = traced[0].result.sim
    events = sim["engine.events"]
    engine_s = (own["engine"] + wself["engine"]) / per
    put("engine.ns_per_event", engine_s * 1e9 / events if events else 0.0,
        "ns")
    for layer in SETUP_LAYERS:
        put(f"setup.{layer}.self_s", setup[layer] / per, "s")
    by_name = {nm: i for i, nm in enumerate(rec.names)}

    def per_call_ms(nm: str) -> float:
        # 0 when the entry point was not found (install() named it)
        i = by_name.get(nm)
        if i is None or not rec.calls[i]:
            return 0.0
        return rec.incl_s[i] / rec.calls[i] * 1e3 / slowdown

    run_map = by_name.get("harness.run_map")
    put("harness.pool_wait_s",
        rec.self_s[run_map] / per if run_map is not None else 0.0, "s")
    put("service.store_get_ms", per_call_ms("service.RunStore.get"), "ms")
    put("service.store_put_ms", per_call_ms("service.RunStore.put"), "ms")
    put("trace.overhead_frac", median([p.run_s for p in traced])
        / median([p.run_s for p in untraced]) - 1.0, "fraction")
    put("trace.spans", rec.spans_total / len(traced), "count")
    put("host.slowdown", slowdown, "ratio")
    ratio_units = {"memory.bus_busy_frac": "fraction",
                   "core.mcache_hit_ratio": "fraction",
                   "service.hit_ratio": "fraction"}
    for key, value in sim.items():
        put(key, value, ratio_units.get(key, "count"))

    rec.write(str(trace_path), traced_wall, workers)
    print(f"perfbench {name} traced: {len(untraced)} untraced + "
          f"{len(traced)} traced passes; seconds per traced pass at "
          f"reference speed; spans in {trace_path.name}")
    print(f"  {'layer':<12} {'self_s':>10} {'calls':>10} {'worker_self_s':>14}"
          f" {'setup_self_s':>13}")
    for layer in LAYERS:
        print(f"  {layer:<12} {own[layer] / per:10.4f} "
              f"{calls[layer] / len(traced):10.0f} "
              f"{wself[layer] / per:14.4f} {setup[layer] / per:13.4f}")
    print(f"  {'untraced':<12} {out['untraced.self_s']['value']:10.4f}")
    print(f"  traced wall per pass {traced_wall / per:.4f} s; "
          f"trace.overhead_frac {out['trace.overhead_frac']['value']:.3f}; "
          f"host slowdown {slowdown:.3f}")
    return out


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    scratch = BENCH_DIR / "out"
    work = scratch / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(work)
    try:
        return bench(args, scratch, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def bench(args: argparse.Namespace, scratch: Path, work: Path) -> int:
    from perfbench.hostspeed import SpeedProbe, pin_to_one_cpu
    from perfbench.trace import (ENTRY_POINTS, SETUP_ENTRY_POINTS, Recorder,
                                 install)

    rec = Recorder()
    rec.worker_dir = str(work)
    missing = install(rec, SETUP_ENTRY_POINTS)
    from perfbench.workloads import WORKLOADS, Gate
    import repro.harness as harness

    pins = json.loads(PINNED.read_text()) if PINNED.is_file() else {}
    seed = 0 if args.write_pins else args.seed
    workload = WORKLOADS[args.workload](seed, str(work))
    pinned = pins.get("digests", {}).get(args.workload, {})
    gate = Gate(pinned, seed)

    if workload.in_process:
        probe = SpeedProbe({pin_to_one_cpu()}).start()
    else:
        probe = SpeedProbe(os.sched_getaffinity(0)).start()
        workload.probe_paused = probe.paused
    try:
        return measure(args, scratch, rec, workload, gate, pins, probe,
                       missing)
    finally:
        harness.shutdown_pool()
        probe.stop()


def measure(args, scratch: Path, rec, workload, gate, pins, probe,
            missing: List[str]) -> int:
    from perfbench.trace import ENTRY_POINTS, SETUP_ENTRY_POINTS, install
    from perfbench.workloads import model_report
    import repro.harness as harness

    seed = gate.seed
    if args.write_pins:
        gate.pinned = None
        result = workload.run_pass(rec, gate)
        if result.failures:
            print("\n".join(result.failures), file=sys.stderr)
            return 1
        pins.setdefault("seed", seed)
        pins.setdefault("digests", {})[args.workload] = dict(
            sorted(gate.seen.items()))
        PINNED.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
        print(f"pinned {len(gate.seen)} digests for {args.workload}")
        return 0

    if args.trace:
        untraced = run_passes(workload, rec, gate, probe, args.seconds / 2)
        harness.shutdown_pool()  # new workers must inherit the wrappers
        rest = [p for p in ENTRY_POINTS if p not in SETUP_ENTRY_POINTS]
        missing += install(rec, rest)
        rec.reset()
        t0 = perf_counter()
        traced = run_passes(workload, rec, gate, probe, args.seconds / 2)
        slowdown = probe.slowdown(t0, perf_counter())
        rec.collect_workers()
        trace_path = scratch / f"trace-{args.workload}-seed{seed}.json"
        metrics = report_per_layer(args.workload, rec, untraced, traced,
                                   slowdown, trace_path)
        passes = untraced + traced
    else:
        passes = run_passes(workload, rec, gate, probe, args.seconds)
        model = (model_report(passes[0].result.elapsed_ns)
                 if args.workload == "paper_dsm" else {})
        metrics = report_end_to_end(args.workload, passes, model)
    if missing:
        print("perfbench: entry points not found (not traced): "
              + ", ".join(missing), file=sys.stderr)
    failures = failures_of(passes)
    for problem in failures[:20]:
        print(f"  FAILED {problem}")
    print(json.dumps({"correct": not failures,
                      "attempted": attempted_of(passes),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
