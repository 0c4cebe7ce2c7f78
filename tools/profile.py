#!/usr/bin/env python
"""Profile one simulation run under cProfile and print the hot path.

The perf work in this repo is profile-guided: every optimisation PR
starts by running this tool on a pinned :class:`~repro.harness.RunSpec`
and attacking the top of the list, and ends by re-running it to show the
cost moved (tools/bench.py then demonstrates the win end to end).

Builds the same workload shapes the bench harness pins, or one pass of
a benchmark workload's run list, so profile output and benchmark numbers
describe the same code path::

    python tools/profile.py                       # default: bench's jacobi arm
    python tools/profile.py --app water --n 48    # water, 48 molecules
    python tools/profile.py --app cholesky
    python tools/profile.py --workload fabric_1024  # perfbench's run list
    python tools/profile.py --sort tottime --limit 40
    python tools/profile.py --callers repro       # who calls into repro.*
    python tools/profile.py --dump /tmp/run.prof  # for snakeviz/pstats

Profiles through :func:`repro.harness.execute_run`, i.e. exactly the
pool-worker body the parallel executor runs, so what this measures is
what ``--jobs N`` sweeps pay per point.  ``--workload NAME`` takes the
run list of ``perfbench.workloads.WORKLOADS[NAME]`` at its pinned seed
and runs each spec in this process (``farm_messaging`` included: its
specs are profiled directly, not through a farm).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

# This file is named profile.py, which would shadow the stdlib `profile`
# module that cProfile imports — drop the script's directory from the
# module search path before touching the profiler machinery.
_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:] = [p for p in sys.path
               if os.path.abspath(p or os.getcwd()) != _HERE]
_ROOT = os.path.dirname(_HERE)
sys.path.insert(0, os.path.join(_ROOT, "src"))

import cProfile  # noqa: E402
import gc  # noqa: E402
import pstats  # noqa: E402
import tempfile  # noqa: E402


def build_spec(app: str, n: Optional[int], iters: Optional[int],
               procs: int, interface: str):
    """A RunSpec mirroring tools/bench.py's pinned workloads."""
    from repro.harness import RunSpec
    from repro.params import SimParams

    params = SimParams().replace(num_processors=procs)
    if app == "jacobi":
        from repro.apps import JacobiConfig

        cfg = JacobiConfig(n=n or 96, iterations=iters or 5)
    elif app == "water":
        from repro.apps import WaterConfig

        cfg = WaterConfig(n_molecules=n or 48, steps=iters or 2)
    elif app == "cholesky":
        from repro.apps import CholeskyConfig, bcsstk14_like

        cfg = CholeskyConfig(matrix=bcsstk14_like(scale=0.06), supernode=4)
    elif app == "collbench":
        from repro.collectives import CollBenchConfig

        cfg = CollBenchConfig(op="barrier", rounds=iters or 16)
    else:
        raise SystemExit(f"unknown app {app!r}")
    return RunSpec(app, params, interface, cfg)


def workload_specs(name: str):
    """``(label, spec)`` for the run list of benchmark workload ``name``
    at the seed its digests are pinned for."""
    if _ROOT not in sys.path:
        sys.path.insert(0, _ROOT)
    from perfbench.workloads import DEFAULT_SEED, WORKLOADS

    if name not in WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    with tempfile.TemporaryDirectory() as scratch:
        return [(item.label, item.spec)
                for item in WORKLOADS[name](DEFAULT_SEED, scratch).items]


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--app", default="jacobi",
                    choices=("jacobi", "water", "cholesky", "collbench"))
    ap.add_argument("--n", type=int, default=None,
                    help="problem size (grid n / molecules); app default "
                         "mirrors tools/bench.py")
    ap.add_argument("--iters", type=int, default=None,
                    help="iterations / steps / rounds")
    ap.add_argument("--procs", type=int, default=4,
                    help="simulated processor count (default 4)")
    ap.add_argument("--interface", default="cni",
                    choices=("cni", "standard"))
    ap.add_argument("--workload", default=None, metavar="NAME",
                    help="profile one pass of a perfbench workload's run "
                         "list instead (fabric_1024, paper_dsm, ...)")
    ap.add_argument("--sort", default="cumulative",
                    help="pstats sort key (default cumulative; try tottime)")
    ap.add_argument("--limit", type=int, default=30,
                    help="rows to print (default 30)")
    ap.add_argument("--callers", default=None, metavar="PATTERN",
                    help="also print callers of functions matching PATTERN")
    ap.add_argument("--dump", default=None, metavar="FILE",
                    help="write raw cProfile stats to FILE")
    args = ap.parse_args(argv)

    from repro.harness import execute_run

    prof = cProfile.Profile()
    if args.workload is not None:
        # No warm-up pass: building the run list imported every layer.
        runs = workload_specs(args.workload)
    else:
        spec = build_spec(args.app, args.n, args.iters, args.procs,
                          args.interface)
        runs = [(spec.describe(), spec)]
        execute_run(spec)  # warm-up: imports, numpy, allocator
    for label, spec in runs:
        gc.collect()  # the previous run's garbage, as perfbench does
        prof.enable()
        stats = execute_run(spec)
        prof.disable()
        events = float(stats.metrics.get("engine.events_processed", 0.0))
        print(f"[profile] {label}: {events:,.0f} events, "
              f"digest {stats.digest()[:12]}")
    ps = pstats.Stats(prof, stream=sys.stdout)
    ps.strip_dirs().sort_stats(args.sort).print_stats(args.limit)
    if args.callers:
        ps.print_callers(args.callers)
    if args.dump:
        prof.dump_stats(args.dump)
        print(f"[profile] wrote {args.dump}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
