"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import (
    Event,
    Interrupt,
    SimulationError,
    Simulator,
)


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0


def test_clock_starts_at_initial_time():
    sim = Simulator(initial_time=42)
    assert sim.now == 42


def test_timeout_advances_clock():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(10)

    sim.process(proc(sim))
    sim.run()
    assert sim.now == 10


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1)


def test_timeout_value_is_delivered():
    sim = Simulator()
    seen = []

    def proc(sim):
        value = yield sim.timeout(5, value="hello")
        seen.append(value)

    sim.process(proc(sim))
    sim.run()
    assert seen == ["hello"]


def test_run_until_time():
    sim = Simulator()

    def ticker(sim):
        while True:
            yield sim.timeout(10)

    sim.process(ticker(sim))
    sim.run(until=35)
    assert sim.now == 35


def test_run_until_event_returns_value():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(3)
        return "done"

    p = sim.process(proc(sim))
    result = sim.run(until=p)
    assert result == "done"
    assert sim.now == 3


def test_run_until_past_time_raises():
    sim = Simulator(initial_time=100)
    with pytest.raises(ValueError):
        sim.run(until=50)


def test_events_processed_in_time_order():
    sim = Simulator()
    order = []

    def waiter(sim, delay, tag):
        yield sim.timeout(delay)
        order.append(tag)

    sim.process(waiter(sim, 30, "c"))
    sim.process(waiter(sim, 10, "a"))
    sim.process(waiter(sim, 20, "b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_fifo_order():
    """Events scheduled for the same instant run in scheduling order."""
    sim = Simulator()
    order = []

    def waiter(sim, tag):
        yield sim.timeout(10)
        order.append(tag)

    for tag in range(5):
        sim.process(waiter(sim, tag))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_process_waits_for_process():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(7)
        return 99

    def parent(sim):
        value = yield sim.process(child(sim))
        return value + 1

    p = sim.process(parent(sim))
    assert sim.run(until=p) == 100


def test_event_succeed_wakes_waiter():
    sim = Simulator()
    event = sim.event()
    seen = []

    def waiter(sim):
        value = yield event
        seen.append(value)

    def trigger(sim):
        yield sim.timeout(5)
        event.succeed("signal")

    sim.process(waiter(sim))
    sim.process(trigger(sim))
    sim.run()
    assert seen == ["signal"]
    assert sim.now == 5


def test_event_cannot_trigger_twice():
    sim = Simulator()
    event = sim.event()
    event.succeed()
    with pytest.raises(SimulationError):
        event.succeed()


def test_event_value_unavailable_before_trigger():
    sim = Simulator()
    event = sim.event()
    with pytest.raises(SimulationError):
        _ = event.value


def test_failed_event_raises_in_waiter():
    sim = Simulator()
    event = sim.event()
    caught = []

    def waiter(sim):
        try:
            yield event
        except RuntimeError as exc:
            caught.append(str(exc))

    def trigger(sim):
        yield sim.timeout(1)
        event.fail(RuntimeError("boom"))

    sim.process(waiter(sim))
    sim.process(trigger(sim))
    sim.run()
    assert caught == ["boom"]


def test_unhandled_failed_event_crashes_simulation():
    sim = Simulator()
    event = sim.event()
    event.fail(RuntimeError("unhandled"))
    with pytest.raises(RuntimeError, match="unhandled"):
        sim.run()


def test_defused_failed_event_does_not_crash():
    sim = Simulator()
    event = sim.event()
    event.fail(RuntimeError("defused"))
    event.defuse()
    sim.run()  # must not raise


def test_fail_requires_exception():
    sim = Simulator()
    event = sim.event()
    with pytest.raises(TypeError):
        event.fail("not an exception")


def test_crashing_process_propagates():
    sim = Simulator()

    def bad(sim):
        yield sim.timeout(1)
        raise ValueError("crash")

    sim.process(bad(sim))
    with pytest.raises(ValueError, match="crash"):
        sim.run()


def test_crashing_process_caught_by_waiter():
    sim = Simulator()
    caught = []

    def bad(sim):
        yield sim.timeout(1)
        raise ValueError("crash")

    def guard(sim):
        try:
            yield sim.process(bad(sim))
        except ValueError as exc:
            caught.append(str(exc))

    sim.process(guard(sim))
    sim.run()
    assert caught == ["crash"]


def test_interrupt_raises_inside_process():
    sim = Simulator()
    log = []

    def sleeper(sim):
        try:
            yield sim.timeout(100)
        except Interrupt as interrupt:
            log.append((sim.now, interrupt.cause))

    def interrupter(sim, victim):
        yield sim.timeout(10)
        victim.interrupt("wake up")

    victim = sim.process(sleeper(sim))
    sim.process(interrupter(sim, victim))
    sim.run()
    assert log == [(10, "wake up")]


def test_interrupt_dead_process_raises():
    sim = Simulator()

    def quick(sim):
        yield sim.timeout(1)

    p = sim.process(quick(sim))
    sim.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_process_cannot_interrupt_itself():
    sim = Simulator()
    errors = []

    def selfish(sim):
        yield sim.timeout(0)
        me = sim.active_process
        try:
            me.interrupt()
        except SimulationError:
            errors.append(True)

    sim.process(selfish(sim))
    sim.run()
    assert errors == [True]


def test_interrupted_process_can_continue():
    sim = Simulator()
    log = []

    def sleeper(sim):
        try:
            yield sim.timeout(100)
        except Interrupt:
            pass
        yield sim.timeout(5)
        log.append(sim.now)

    def interrupter(sim, victim):
        yield sim.timeout(10)
        victim.interrupt()

    victim = sim.process(sleeper(sim))
    sim.process(interrupter(sim, victim))
    sim.run()
    assert log == [15]


def test_all_of_waits_for_all():
    sim = Simulator()
    finished = []

    def proc(sim):
        a = sim.timeout(10, value="a")
        b = sim.timeout(20, value="b")
        values = yield sim.all_of([a, b])
        finished.append(sorted(values.values()))

    sim.process(proc(sim))
    sim.run()
    assert finished == [["a", "b"]]
    assert sim.now == 20


def test_any_of_waits_for_first():
    sim = Simulator()
    finished = []

    def proc(sim):
        a = sim.timeout(10, value="a")
        b = sim.timeout(20, value="b")
        values = yield sim.any_of([a, b])
        finished.append(list(values.values()))

    sim.process(proc(sim))
    sim.run(until=15)
    assert finished == [["a"]]


def test_and_operator():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(5) & sim.timeout(9)
        return sim.now

    p = sim.process(proc(sim))
    assert sim.run(until=p) == 9


def test_or_operator():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(5) | sim.timeout(9)
        return sim.now

    p = sim.process(proc(sim))
    assert sim.run(until=p) == 5


def test_empty_all_of_triggers_immediately():
    sim = Simulator()

    def proc(sim):
        value = yield sim.all_of([])
        return value

    p = sim.process(proc(sim))
    assert sim.run(until=p) == {}


def test_condition_over_mixed_simulators_rejected():
    sim1 = Simulator()
    sim2 = Simulator()
    with pytest.raises(SimulationError):
        sim1.all_of([sim1.timeout(1), sim2.timeout(1)])


def test_process_is_alive_lifecycle():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(10)

    p = sim.process(proc(sim))
    assert p.is_alive
    sim.run()
    assert not p.is_alive


def test_process_requires_generator():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.process(lambda: None)  # type: ignore[arg-type]


def test_peek_reports_next_event_time():
    sim = Simulator()
    assert sim.peek() == float("inf")
    sim.timeout(25)
    # Initialize events etc. may precede; peek is the earliest.
    assert sim.peek() <= 25


def test_yield_already_processed_event_continues_immediately():
    sim = Simulator()
    event = sim.event()
    event.succeed("past")
    values = []

    def late_waiter(sim):
        yield sim.timeout(10)  # event is processed long before this
        value = yield event
        values.append((sim.now, value))

    sim.process(late_waiter(sim))
    sim.run()
    assert values == [(10, "past")]


def test_nested_processes_deep_chain():
    sim = Simulator()

    def leaf(sim):
        yield sim.timeout(1)
        return 1

    def chain(sim, depth):
        if depth == 0:
            value = yield sim.process(leaf(sim))
        else:
            value = yield sim.process(chain(sim, depth - 1))
        return value + 1

    p = sim.process(chain(sim, 20))
    assert sim.run(until=p) == 22


def test_event_repr_shows_state():
    sim = Simulator()
    event = sim.event()
    assert "pending" in repr(event)
    event.succeed()
    assert "triggered" in repr(event)
