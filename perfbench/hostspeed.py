"""Host-speed probe: scale measured host time to a reference speed.

On a shared virtual machine the speed of one virtual CPU drifts with
what other tenants run: on the 2-vCPU reference box a fixed piece of
Python took anywhere from 1x to 2x its fastest time, in phases lasting
seconds, independently on each vCPU.  Wall times of identical passes spread by
15-25 % between processes, far more than any change worth detecting.

The probe measures that drift where the benchmark runs: a daemon thread
pinned to a CPU runs :func:`_probe_work` every :data:`PERIOD_S` seconds,
taking the interpreter lock for about half a millisecond.  A workload that runs
in the benchmark process pins its main thread and one probe to the same
CPU; the farm, whose pool workers use every CPU, runs one probe per CPU
and leaves its main thread unpinned (a pinned process would make
``run_map`` clamp the pool to one worker and run inline).

The mean probe time over an interval, divided by :data:`REF_S`, is the
interval's *slowdown*; host time divided by the slowdown is the time the
work would have taken at the reference speed.  The mean (not the
median) is the right average: samples are evenly spaced in time, and
wall time integrates 1/speed over time.
"""

from __future__ import annotations

import contextlib
import heapq
import os
import threading
from time import perf_counter
from typing import Iterator, List, Tuple

#: Events the probe pushes through its miniature event queue.
EVENTS = 600

#: Pause between probes.
PERIOD_S = 0.05

#: Fewest samples a slowdown is computed from; a shorter interval
#: borrows the latest samples taken before its end.
MIN_SAMPLES = 8

#: Probe time at the reference speed: the fast phase of the reference
#: box (2 vCPUs at 2.1 GHz, Python 3.11).
REF_S = 0.55e-3


class _Event:
    __slots__ = ("t", "callback")

    def __init__(self, t: int, callback) -> None:
        self.t = t
        self.callback = callback


def _probe_work() -> None:
    """A fixed amount of event-kernel-like work: heap pushes and pops
    of tuples holding small objects, and a closure call per event.
    Contention slows it as much as it slows the simulator (measured
    against single runs: log-log slope 0.9-1.1), where a bare integer
    loop is slowed less (slope 1.1-1.4)."""
    heap: list = []
    total = [0]

    def callback(t: int) -> None:
        total[0] += t

    for i in range(EVENTS):
        heapq.heappush(heap, ((i * 7919) % 1000, i, _Event(i, callback)))
        if len(heap) > 32:
            event = heapq.heappop(heap)[2]
            event.callback(event.t)


def pin_to_one_cpu() -> int:
    """Pin the calling thread (and the threads it starts later) to the
    CPU it is running on; returns that CPU."""
    allowed = os.sched_getaffinity(0)
    try:
        with open("/proc/thread-self/stat") as fh:
            # field 39, "processor"; fields resume after the ")" of comm
            cpu = int(fh.read().rpartition(")")[2].split()[36])
    except (OSError, IndexError, ValueError):
        cpu = min(allowed)
    if cpu not in allowed:
        cpu = min(allowed)
    os.sched_setaffinity(0, {cpu})
    return cpu


class SpeedProbe:
    """Background sampler of host speed, one thread pinned to each CPU
    in ``cpus`` (see the module docstring)."""

    def __init__(self, cpus) -> None:
        self.samples: List[Tuple[float, float]] = []  # (start, duration)
        self._stop = threading.Event()
        self._paused = threading.Event()
        self._threads = [
            threading.Thread(target=self._loop, args=(cpu,), daemon=True,
                             name=f"perfbench-speed-probe-{cpu}")
            for cpu in sorted(cpus)]

    def start(self) -> "SpeedProbe":
        for thread in self._threads:
            thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join()

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        """No probe starts inside the block: for stretches where the
        benchmark's own worker processes occupy the probes' CPUs, which
        would slow the probe itself rather than reveal host speed."""
        self._paused.set()
        try:
            yield
        finally:
            self._paused.clear()

    def _loop(self, cpu: int) -> None:
        os.sched_setaffinity(0, {cpu})  # this thread only
        while not self._stop.wait(PERIOD_S):
            if self._paused.is_set():
                continue
            t0 = perf_counter()
            _probe_work()
            self.samples.append((t0, perf_counter() - t0))

    def slowdown(self, t0: float, t1: float) -> float:
        """Mean probe time over ``[t0, t1]`` relative to :data:`REF_S`,
        from at least :data:`MIN_SAMPLES` samples (1.0 with none)."""
        before = [(s, d) for s, d in list(self.samples) if s <= t1]
        picked = [d for s, d in before if s >= t0]
        if len(picked) < MIN_SAMPLES:
            picked = [d for _, d in sorted(before)[-MIN_SAMPLES:]]
        if not picked:
            return 1.0
        return sum(picked) / len(picked) / REF_S

