"""Unit tests for the coroutine kernel."""

import pytest

from repro.engine import Event, Interrupt, Process, SimulationError, Simulator


def test_delay_advances_time():
    sim = Simulator()

    def proc():
        yield 100.0
        assert sim.now == 100.0
        yield 50
        return sim.now

    assert sim.run_process(proc()) == 150.0


def test_zero_delay_allowed():
    sim = Simulator()

    def proc():
        yield 0.0
        return sim.now

    assert sim.run_process(proc()) == 0.0


def test_negative_delay_raises_inside_process():
    sim = Simulator()

    def proc():
        with pytest.raises(SimulationError):
            yield -1.0
        return "survived"

    assert sim.run_process(proc()) == "survived"


def test_event_wait_and_trigger_value():
    sim = Simulator()
    ev = sim.event()
    log = []

    def waiter():
        v = yield ev
        log.append((sim.now, v))
        return v

    def firer():
        yield 40.0
        ev.trigger("payload")

    sim.spawn(firer(), "firer")
    result = sim.run_process(waiter(), "waiter")
    assert result == "payload"
    assert log == [(40.0, "payload")]


def test_event_already_triggered_resumes_immediately():
    sim = Simulator()
    ev = sim.event()
    ev.trigger(7)

    def proc():
        v = yield ev
        return (sim.now, v)

    assert sim.run_process(proc()) == (0.0, 7)


def test_event_double_trigger_is_error():
    sim = Simulator()
    ev = sim.event()
    ev.trigger()
    with pytest.raises(SimulationError):
        ev.trigger()


def test_timeout_event():
    sim = Simulator()

    def proc():
        v = yield sim.timeout(25.0, "tick")
        return (sim.now, v)

    assert sim.run_process(proc()) == (25.0, "tick")


def test_join_process_gets_return_value():
    sim = Simulator()

    def child():
        yield 10.0
        return 42

    def parent():
        c = sim.spawn(child(), "child")
        v = yield c
        return (sim.now, v)

    assert sim.run_process(parent()) == (10.0, 42)


def test_join_finished_process():
    sim = Simulator()

    def child():
        yield 1.0
        return "done"

    def parent():
        c = sim.spawn(child(), "child")
        yield 100.0
        v = yield c  # already finished
        return v

    assert sim.run_process(parent()) == "done"


def test_yield_from_composition():
    sim = Simulator()

    def inner():
        yield 5.0
        return "inner-result"

    def outer():
        v = yield from inner()
        yield 5.0
        return (v, sim.now)

    assert sim.run_process(outer()) == ("inner-result", 10.0)


def test_deadlock_detected():
    sim = Simulator()
    ev = sim.event()

    def proc():
        yield ev  # nobody will trigger

    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_process(proc())


def test_yield_garbage_raises():
    sim = Simulator()

    def proc():
        yield "not a valid thing"

    with pytest.raises(SimulationError):
        sim.run_process(proc())


def test_interrupt_wakes_sleeping_process():
    sim = Simulator()

    def sleeper():
        try:
            yield 1000.0
        except Interrupt as i:
            return ("interrupted", sim.now, i.cause)
        return "slept"

    def poker(target):
        yield 10.0
        target.interrupt("wake up")

    target = sim.spawn(sleeper(), "sleeper")
    sim.spawn(poker(target), "poker")
    sim.run()
    assert target.result == ("interrupted", 10.0, "wake up")


def test_interrupt_finished_process_is_noop():
    sim = Simulator()

    def quick():
        yield 1.0
        return "ok"

    p = sim.spawn(quick(), "quick")
    sim.run()
    p.interrupt()  # should not raise
    sim.run()
    assert p.result == "ok"


def _sleep_twice_after_interrupt(sim, wait_on, log):
    try:
        value = yield wait_on
        log.append(("woke", sim.now, value))
    except Interrupt:
        log.append(("interrupted", sim.now))
    value = yield 100.0
    log.append(("slept", sim.now, value))
    value = yield 100.0
    log.append(("slept2", sim.now, value))


def test_interrupt_withdraws_event_waiter():
    """An interrupted event wait is over: a later trigger must not
    resume the process out of its next sleep."""
    sim = Simulator()
    ev = sim.event()
    log = []

    def poker(target):
        yield 10.0
        target.interrupt()
        yield 10.0
        ev.trigger("late")

    target = sim.spawn(_sleep_twice_after_interrupt(sim, ev, log))
    sim.spawn(poker(target))
    sim.run()
    assert log == [("interrupted", 10.0), ("slept", 110.0, None),
                   ("slept2", 210.0, None)]


def test_interrupt_withdraws_join_waiter():
    sim = Simulator()
    log = []

    def child():
        yield 20.0
        return "child done"

    def poker(target):
        yield 10.0
        target.interrupt()

    kid = sim.spawn(child())
    target = sim.spawn(_sleep_twice_after_interrupt(sim, kid, log))
    sim.spawn(poker(target))
    sim.run()
    assert kid.result == "child done"
    assert log == [("interrupted", 10.0), ("slept", 110.0, None),
                   ("slept2", 210.0, None)]


def test_interrupt_racing_a_queued_wakeup_is_thrown_at_next_wait():
    """The event fired before the interrupt in the same instant: the
    process takes the wakeup, and the interrupt then ends the sleep it
    started; the sleep's timer never resumes it a second time."""
    sim = Simulator()
    ev = sim.event()
    log = []

    def sleeper():
        value = yield ev
        log.append(("woke", sim.now, value))
        try:
            yield 100.0
        except Interrupt as i:
            log.append(("interrupted", sim.now, i.cause))
        yield 500.0
        log.append(("slept", sim.now))

    def poker(target):
        yield 10.0
        ev.trigger("v")
        target.interrupt("late")

    target = sim.spawn(sleeper())
    sim.spawn(poker(target))
    sim.run()
    assert log == [("woke", 10.0, "v"), ("interrupted", 10.0, "late"),
                   ("slept", 510.0)]


def test_simultaneous_events_run_in_spawn_order():
    sim = Simulator()
    order = []

    def proc(tag):
        yield 10.0
        order.append(tag)

    for tag in "abc":
        sim.spawn(proc(tag), tag)
    sim.run()
    assert order == ["a", "b", "c"]


def test_run_until_stops_clock():
    sim = Simulator()

    def proc():
        yield 100.0
        yield 100.0

    sim.spawn(proc(), "p")
    t = sim.run(until=150.0)
    assert t == 150.0
    # finishing the run completes the process
    sim.run()
    assert sim.now == 200.0


def test_spawn_requires_generator():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.spawn(lambda: None)  # type: ignore[arg-type]


def test_many_processes_determinism():
    def build():
        sim = Simulator()
        log = []

        def proc(i):
            yield float(i % 7)
            log.append(i)
            yield float(i % 3)
            log.append(-i)

        for i in range(50):
            sim.spawn(proc(i), f"p{i}")
        sim.run()
        return log

    assert build() == build()


def test_exception_in_process_propagates_to_run():
    sim = Simulator()

    def broken():
        yield 5.0
        raise RuntimeError("app bug")

    sim.spawn(broken(), "broken")
    with pytest.raises(RuntimeError, match="app bug"):
        sim.run()


def test_exception_leaves_clock_at_failure_time():
    sim = Simulator()

    def broken():
        yield 7.0
        raise RuntimeError("boom")

    sim.spawn(broken(), "broken")
    try:
        sim.run()
    except RuntimeError:
        pass
    assert sim.now == 7.0
