"""Failure-path coverage for the simulation kernel's error types.

Covers :class:`Interrupt` delivery into a waiting process, ``fail()``
on an un-defused event propagating out of :meth:`Simulator.run`, and
:class:`EmptySchedule` behaviour.
"""

from __future__ import annotations

import pytest

from repro.sim import Simulator
from repro.sim.errors import (
    EmptySchedule,
    Interrupt,
    SimulationError,
    StopSimulation,
)

# -- Interrupt delivery ------------------------------------------------------


def test_interrupt_delivered_into_waiting_process():
    sim = Simulator()
    log = []

    def sleeper(sim):
        try:
            yield sim.timeout(1000)
            log.append("finished")
        except Interrupt as interrupt:
            log.append(("interrupted", interrupt.cause, sim.now))

    def interrupter(sim, victim):
        yield sim.timeout(10)
        victim.interrupt(cause="wakeup")

    victim = sim.process(sleeper(sim), name="sleeper")
    sim.process(interrupter(sim, victim), name="interrupter")
    sim.run()
    assert log == [("interrupted", "wakeup", 10)]


def test_interrupt_cause_defaults_to_none():
    assert Interrupt().cause is None
    assert Interrupt("why").cause == "why"


def test_interrupted_process_can_resume_waiting():
    """After handling the Interrupt a process keeps running normally."""
    sim = Simulator()
    log = []

    def sleeper(sim):
        try:
            yield sim.timeout(1000)
        except Interrupt:
            pass
        yield sim.timeout(5)
        log.append(sim.now)

    def interrupter(sim, victim):
        yield sim.timeout(10)
        victim.interrupt()

    victim = sim.process(sleeper(sim), name="sleeper")
    sim.process(interrupter(sim, victim), name="interrupter")
    sim.run()
    assert log == [15]


def test_interrupting_terminated_process_raises():
    sim = Simulator()

    def quick(sim):
        yield sim.timeout(1)

    proc = sim.process(quick(sim))
    sim.run()
    with pytest.raises(SimulationError, match="terminated"):
        proc.interrupt()


def test_process_cannot_interrupt_itself():
    sim = Simulator()
    caught = []

    def selfish(sim):
        me = sim.active_process
        try:
            me.interrupt()
        except SimulationError as exc:
            caught.append(str(exc))
        yield sim.timeout(1)

    sim.process(selfish(sim))
    sim.run()
    assert caught and "not allowed to interrupt itself" in caught[0]


# -- fail() propagation ------------------------------------------------------


def test_undefused_failed_event_crashes_run():
    """fail() with nobody waiting propagates out of Simulator.run()."""
    sim = Simulator()
    event = sim.event()
    event.fail(RuntimeError("nobody handled me"))
    with pytest.raises(RuntimeError, match="nobody handled me"):
        sim.run()


def test_defused_failed_event_does_not_crash_run():
    sim = Simulator()
    event = sim.event()
    event.fail(RuntimeError("handled"))
    event.defuse()
    sim.run()  # no raise


def test_failed_event_reraises_inside_waiting_process():
    sim = Simulator()
    caught = []

    def waiter(sim, event):
        try:
            yield event
        except RuntimeError as exc:
            caught.append(str(exc))

    event = sim.event()
    sim.process(waiter(sim, event), name="waiter")

    def failer(sim, event):
        yield sim.timeout(3)
        event.fail(RuntimeError("boom"))

    sim.process(failer(sim, event), name="failer")
    sim.run()
    assert caught == ["boom"]


def test_crashing_process_propagates_if_unwaited():
    sim = Simulator()

    def crasher(sim):
        yield sim.timeout(1)
        raise ValueError("process crashed")

    sim.process(crasher(sim))
    with pytest.raises(ValueError, match="process crashed"):
        sim.run()


def test_fail_requires_an_exception():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.event().fail("not an exception")


def test_double_trigger_raises():
    sim = Simulator()
    event = sim.event()
    event.succeed(1)
    with pytest.raises(SimulationError, match="already been triggered"):
        event.succeed(2)
    with pytest.raises(SimulationError, match="already been triggered"):
        event.fail(RuntimeError("late"))


# -- EmptySchedule -----------------------------------------------------------


def test_run_returns_none_when_schedule_drains():
    sim = Simulator()

    def quick(sim):
        yield sim.timeout(2)

    sim.process(quick(sim))
    assert sim.run() is None
    assert sim.now == 2


def test_run_until_event_that_never_triggers_raises():
    sim = Simulator()
    never = sim.event()

    def quick(sim):
        yield sim.timeout(2)

    sim.process(quick(sim))
    with pytest.raises(SimulationError, match="until-event has not triggered"):
        sim.run(until=never)


def test_empty_schedule_is_a_simulation_error():
    assert issubclass(EmptySchedule, SimulationError)


def test_stop_simulation_carries_value():
    stop = StopSimulation("payload")
    assert stop.value == "payload"
