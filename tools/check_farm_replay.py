#!/usr/bin/env python
"""Farm batch replay: one batch through an in-process farm, twice.

Submits six small Jacobi specs (p = 1, 2, 4 on both interfaces) to a
``RunFarm`` over one persistent store, then submits the same batch
again.  The run farm's cache guarantee (docs/service.md) holds when the
first pass executes every spec, the second pass is served entirely from
the store with bit-identical ``RunStats`` digests, and the store
counted one put and one hit per spec.  Exit 0 and one ``OK`` line on
success; exit 1 with the problems on stderr otherwise.

    python tools/check_farm_replay.py
"""

from __future__ import annotations

import os
import sys
import tempfile
from typing import Any, Dict, List, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.apps import JacobiConfig  # noqa: E402
from repro.harness import RunSpec  # noqa: E402
from repro.params import SimParams  # noqa: E402
from repro.service import RunFarm, service_metrics  # noqa: E402

#: One finished job: (job id, served from the store, digest).
Job = Tuple[str, bool, str]


def batch() -> List[RunSpec]:
    """The replayed specs."""
    return [RunSpec("jacobi", SimParams().replace(num_processors=p),
                    iface, JacobiConfig(n=24, iterations=2))
            for p in (1, 2, 4) for iface in ("cni", "standard")]


def replay(specs: List[RunSpec], store: str
           ) -> Tuple[List[Job], List[Job], Dict[str, Any]]:
    """Run ``specs`` twice through one farm; returns the cold and warm
    jobs and the ``service.*`` metrics afterwards."""
    passes = []
    with RunFarm(store=store, workers=2, autostart=False) as farm:
        for _ in range(2):
            ids = farm.submit_batch(specs)
            farm.step()
            passes.append([(i, farm.status(i)["from_cache"],
                            farm.result(i).digest()) for i in ids])
    return passes[0], passes[1], service_metrics()


def check(cold: List[Job], warm: List[Job], metrics: Dict[str, Any],
          nspecs: int) -> List[str]:
    """Problems with one replay (empty when the cache guarantee held)."""
    problems = []
    if any(hit for _, hit, _ in cold):
        problems.append("first pass was served from the store")
    if not all(hit for _, hit, _ in warm):
        problems.append("second pass was not served entirely from the store")
    for (c, _, dc), (w, _, dw) in zip(cold, warm):
        if dc != dw:
            problems.append(f"digest mismatch: {c}={dc} {w}={dw}")
    for counter in ("service.store.hits", "service.store.puts"):
        if metrics.get(counter) != nspecs:
            problems.append(f"{counter} = {metrics.get(counter)}, "
                            f"expected {nspecs}")
    return problems


def main() -> int:
    specs = batch()
    with tempfile.TemporaryDirectory() as tmp:
        cold, warm, metrics = replay(specs, tmp)
    problems = check(cold, warm, metrics, len(specs))
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        return 1
    print(f"OK: {len(specs)} specs executed once each; replay was "
          f"{len(specs)} cache hits with bit-identical digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
