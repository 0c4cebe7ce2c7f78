#!/usr/bin/env python
"""Digest determinism across ``--jobs``: one experiment, several pool sizes.

Runs ``python -m repro.harness <exp> --jobs J --metrics DIR`` once per
``J`` in ``--jobs`` and checks that every run recorded the same
non-empty list of per-point ``RunStats`` digests (docs/parallel_runs.md).
With ``--topology SPEC`` each run is wired to that fabric, and every
exported run must also carry the ``net.*`` metric scope
(docs/network.md).  Exit 0 and one ``OK`` line on success; exit 1 with
the problems on stderr otherwise.

    python tools/check_determinism.py fig4 --jobs 1,2,4
    python tools/check_determinism.py fig2 --topology torus:2x2x2 --jobs 1,2
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_experiment(exp: str, jobs: int, workdir: str,
                   topology: Optional[str] = None) -> List[dict]:
    """Run ``exp`` through the harness CLI at ``--jobs jobs``; return the
    exported runs (each with ``digest`` and ``metrics``)."""
    metrics_dir = os.path.join(workdir, f"metrics_j{jobs}")
    cmd = [sys.executable, "-m", "repro.harness", exp, "--jobs", str(jobs),
           "--metrics", metrics_dir,
           "--results", os.path.join(workdir, f"results_j{jobs}")]
    if topology:
        cmd += ["--topology", topology]
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    subprocess.run(cmd, check=True, env=env, stdout=subprocess.DEVNULL)
    with open(os.path.join(metrics_dir, f"{exp}.metrics.json")) as fh:
        return json.load(fh)["runs"]


def compare(runs_by_jobs: Dict[int, List[dict]],
            require_net: bool = False) -> List[str]:
    """Problems with a set of runs keyed by ``--jobs`` value (empty when
    the digests are non-empty and identical, and, with ``require_net``,
    every run exports the ``net.*`` scope)."""
    problems = []
    digests = {j: [r["digest"] for r in runs]
               for j, runs in runs_by_jobs.items()}
    first_jobs = min(digests)
    reference = digests[first_jobs]
    if not reference:
        problems.append(f"--jobs {first_jobs} recorded no digests")
    for j, ds in sorted(digests.items()):
        if ds != reference:
            problems.append(f"digests diverge: --jobs {first_jobs} "
                            f"{reference} vs --jobs {j} {ds}")
    if require_net:
        for j, runs in sorted(runs_by_jobs.items()):
            if not all(any(k.startswith("net.") for k in r["metrics"])
                       for r in runs):
                problems.append(f"--jobs {j}: net.* scope missing")
    return problems


def parse_jobs(text: str) -> List[int]:
    jobs = [int(part) for part in text.split(",") if part]
    if len(jobs) < 2 or min(jobs) < 1:
        raise argparse.ArgumentTypeError(
            f"need two or more positive values, got {text!r}")
    return jobs


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("experiment")
    ap.add_argument("--jobs", type=parse_jobs, required=True,
                    help="comma-separated pool sizes, e.g. 1,2,4")
    ap.add_argument("--topology", help="fabric spec, e.g. torus:2x2x2")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as workdir:
        runs = {j: run_experiment(args.experiment, j, workdir, args.topology)
                for j in args.jobs}
    problems = compare(runs, require_net=args.topology is not None)
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        return 1
    fabric = f" on {args.topology}" if args.topology else ""
    jobs = ", ".join(str(j) for j in args.jobs)
    print(f"OK: {len(runs[args.jobs[0]])} {args.experiment} digests{fabric} "
          f"identical at --jobs {jobs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
