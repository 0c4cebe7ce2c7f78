"""Regression pins for the optimized dispatch loop.

``Simulator.run`` pops the event heap directly instead of going through
``EventQueue.peek_time``/``pop``.  These tests pin the visible contract
of that fast path against a straight-line reference implementation:
exact pop order under randomized (seeded) schedules, cancellation-heavy
queues, same-instant priority ties, and the historical ``until``-clamp
corner cases.  The second half pins ``Process._step``'s timed-wait fast
path against the general ``_dispatch`` path.
"""

import random

import numpy as np
import pytest

from repro.engine import EventQueue, Interrupt, SimulationError, Simulator


def reference_order(entries):
    """Expected fire order: sort by (time, priority, seq), drop cancelled.

    This is the EventQueue ordering contract stated independently of the
    heap: a total order over (time, priority, insertion sequence).
    """
    live = [(t, prio, seq) for (t, prio, seq, cancelled) in entries
            if not cancelled]
    return [seq for (_t, _prio, seq) in sorted(live)]


def test_randomized_schedule_pops_in_reference_order():
    rng = random.Random(0xC41)
    for trial in range(5):
        q = EventQueue()
        entries = []
        handles = []
        for seq in range(300):
            t = rng.choice([0.0, 1.0, 2.5, 2.5, 7.0, rng.uniform(0, 10)])
            prio = rng.choice([0, 0, 1])
            h = q.push(t, (lambda s=seq: s), priority=prio)
            handles.append(h)
            entries.append([t, prio, seq, False])
        for i in rng.sample(range(300), 120):  # cancellation-heavy
            handles[i].cancel()
            entries[i][3] = True
        got = []
        while True:
            try:
                _t, cb = q.pop()
            except IndexError:
                break
            got.append(cb())
        assert got == reference_order(entries), f"trial {trial} diverged"


def test_simulator_loop_matches_queue_pop_order():
    """The inline heap loop in Simulator.run dispatches exactly the
    sequence EventQueue.pop would have produced."""
    def build(seed, out):
        rng = random.Random(seed)
        sim = Simulator()
        handles = []
        for seq in range(200):
            t = rng.choice([0.0, 3.0, 3.0, rng.uniform(0, 20)])
            prio = rng.choice([0, 1])
            handles.append(sim._queue.push(
                t, (lambda s=seq: out.append(s)), priority=prio))
        for i in rng.sample(range(200), 80):
            handles[i].cancel()
        return sim

    for seed in (1, 2, 3):
        # Reference: drain the same schedule through the public pop API.
        reference = []
        ref = build(seed, reference)
        while True:
            try:
                _t, cb = ref._queue.pop()
            except IndexError:
                break
            cb()
        fired = []
        sim = build(seed, fired)
        sim.run()
        assert fired == reference
        assert sim.events_processed == len(reference)


def test_same_instant_priority_orders_before_sequence():
    sim = Simulator()
    order = []
    # Scheduled later but priority 0 beats the earlier-scheduled
    # priority-1 (call_soon) entry at the same instant.
    sim._queue.push(5.0, lambda: order.append("soon"), priority=1)
    sim._queue.push(5.0, lambda: order.append("timer"), priority=0)
    sim._queue.push(5.0, lambda: order.append("soon2"), priority=1)
    sim.run()
    assert order == ["timer", "soon", "soon2"]


def test_cancellation_storm_inside_callbacks():
    """Callbacks cancelling not-yet-fired events mid-run never fire them
    and never disturb the order of the survivors."""
    sim = Simulator()
    order = []
    handles = {}

    def fire(name):
        order.append(name)
        victim = handles.get(f"victim-of-{name}")
        if victim is not None:
            victim.cancel()

    handles["a"] = sim.schedule(1.0, lambda: fire("a"))
    handles["victim-of-a"] = sim.schedule(2.0, lambda: fire("b"))
    handles["c"] = sim.schedule(3.0, lambda: fire("c"))
    handles["victim-of-c"] = sim.schedule(4.0, lambda: fire("d"))
    handles["e"] = sim.schedule(5.0, lambda: fire("e"))
    assert sim.run() == 5.0
    assert order == ["a", "c", "e"]
    assert sim.events_processed == 3


def test_until_clamps_when_queue_is_empty():
    sim = Simulator()
    assert sim.run(until=100.0) == 100.0


def test_until_clamps_when_events_lie_beyond():
    sim = Simulator()
    fired = []
    sim.schedule(250.0, lambda: fired.append(1))
    assert sim.run(until=100.0) == 100.0
    assert fired == []


def test_all_cancelled_queue_does_not_clamp_to_until():
    """Historical corner: a queue holding only cancelled entries drains
    mid-skim and the clock stays put (the empty-at-entry path clamps,
    this one never did — digests depend on the distinction)."""
    sim = Simulator()
    sim.schedule(10.0, lambda: None).cancel()
    sim.schedule(20.0, lambda: None).cancel()
    assert sim.run(until=100.0) == 0.0
    assert sim.events_processed == 0


def test_max_events_stops_without_consuming_the_next_event():
    sim = Simulator()
    fired = []
    for i in range(5):
        sim.schedule(float(i + 1), lambda i=i: fired.append(i))
    sim.run(max_events=2)
    assert fired == [0, 1]
    # The remaining events are untouched and fire on the next run.
    sim.run()
    assert fired == [0, 1, 2, 3, 4]
    assert sim.events_processed == 5


def test_hwm_accumulates_across_runs():
    sim = Simulator()
    for i in range(8):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.queue_len_hwm == 8
    sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.queue_len_hwm == 8  # smaller second run never lowers it


# -- the timed-wait fast path in Process._step ------------------------------
#
# A plain non-negative float/int yield is pushed straight onto the heap;
# everything else goes through Process._dispatch.  A float/int subclass
# forces the same delay through _dispatch, which is the reference.

class _SlowFloat(float):
    """A delay that bypasses the fast path (its type is not float)."""


class _SlowInt(int):
    """A delay that bypasses the fast path (its type is not int)."""


def _slow(delay):
    if type(delay) is float:
        return _SlowFloat(delay)
    if type(delay) is int:
        return _SlowInt(delay)
    return delay


def _sleep_log(delays, force_dispatch=False):
    """Run one process yielding ``delays``; return its (now, value) log,
    the error it raised and the simulator."""
    sim = Simulator()
    log = []

    def body():
        for d in delays:
            value = yield (_slow(d) if force_dispatch else d)
            log.append((sim.now, type(sim.now), value))

    sim.spawn(body())
    error = None
    try:
        sim.run()
    except Exception as exc:  # compared between the two paths
        error = (type(exc), str(exc))
    return log, error, sim


@pytest.mark.parametrize("delays", [
    [5, 2.5, 0, 0.0, 7],
    [True, False, 3],
    [np.float64(3.5), np.int64(2), 1.0],
    [1.0, float("inf")],
])
def test_fast_path_wakes_like_dispatch(delays):
    fast = _sleep_log(delays)
    ref = _sleep_log(delays, force_dispatch=True)
    assert fast[:2] == ref[:2]
    assert fast[0][-1][1] is float  # the clock stays a float
    assert fast[2].events_processed == ref[2].events_processed


def test_nan_delay_raises_like_dispatch():
    fast = _sleep_log([1.0, float("nan")])
    ref = _sleep_log([1.0, float("nan")], force_dispatch=True)
    assert fast[:2] == ref[:2]
    assert fast[1] == (ValueError, "event time is NaN")


@pytest.mark.parametrize("bad", [-1, -0.5, np.float64(-2.0)])
def test_negative_delay_is_thrown_like_dispatch(bad):
    def run(delay):
        sim = Simulator()
        caught = []

        def body():
            yield 1.0
            try:
                yield delay
            except SimulationError as exc:
                caught.append((sim.now, str(exc)))
            yield 2.0

        sim.spawn(body(), "p")
        sim.run()
        return caught, sim.now, sim.events_processed

    assert run(bad) == run(_slow(bad))
    assert run(bad)[0] == [(1.0, f"process p yielded negative delay {bad}")]


def test_fast_path_entry_is_the_push_entry():
    """The heap entry of a timed wait is (t, 0, seq, handle), with the
    next sequence number, exactly what EventQueue.push builds."""
    sim = Simulator()

    def body():
        yield 4.0

    proc = sim.spawn(body())
    sim.run(max_events=1)  # the spawn: the process now sleeps
    (t, prio, seq, handle), = sim._queue._heap
    assert (t, prio, seq) == (4.0, 0, 1)
    assert sim._queue._seq == 2
    assert handle.time == 4.0 and not handle.cancelled
    assert handle.callback == proc._step
    assert proc._waiting_on is handle


def _random_world(seed, force_dispatch):
    """Processes mixing timed waits, event waits and triggers, joins,
    cancelled timers and interrupts; returns the wake log and the
    simulator."""
    rng = random.Random(seed)
    sim = Simulator()
    log = []
    events = [sim.event() for _ in range(12)]
    procs = []

    def delay():
        d = rng.choice([0, 1, 2, 2.5, 3.0, 0.0, True, np.float64(1.5), 4])
        return _slow(d) if force_dispatch else d

    def body(i):
        for step in range(rng.randint(3, 8)):
            kind = rng.random()
            try:
                if kind < 0.55:
                    value = yield delay()
                elif kind < 0.75:
                    value = yield rng.choice(events)
                elif kind < 0.85 and i > 0:
                    value = yield procs[rng.randrange(i)]
                else:
                    ev = rng.choice(events)
                    if not ev.triggered:
                        ev.trigger((i, step))
                    value = yield delay()
            except Interrupt as irq:
                value = ("irq", irq.cause)
            log.append((sim.now, i, step, value))
        return i

    def chaos():
        for _ in range(10):
            yield delay()
            victim = procs[rng.randrange(len(procs))]
            if rng.random() < 0.5:
                victim.interrupt(sim.now)
            handle = sim.schedule(rng.choice([1.0, 2.0]),
                                  lambda: log.append(("timer", sim.now)))
            if rng.random() < 0.5:
                handle.cancel()
        for ev in events:
            if not ev.triggered:
                ev.trigger("final")

    for i in range(20):
        procs.append(sim.spawn(body(i), f"p{i}"))
    sim.spawn(chaos(), "chaos")
    sim.run()
    return log, sim


def test_randomized_mix_matches_dispatch_reference():
    for seed in range(6):
        fast_log, fast = _random_world(seed, force_dispatch=False)
        ref_log, ref = _random_world(seed, force_dispatch=True)
        assert fast_log == ref_log, f"seed {seed} diverged"
        assert fast.events_processed == ref.events_processed
        assert fast.queue_len_hwm == ref.queue_len_hwm
        assert fast.now == ref.now
