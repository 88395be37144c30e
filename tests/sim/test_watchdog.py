"""Tests for the Simulator.run watchdog and until-event failure propagation.

Runaway detection and until-failure propagation are checked with and
without a trace sink: a sink or a limit moves the run onto the kernel's
checked loop, and neither may change what the other reports.
"""

import pytest

from repro.analyze import DeterminismSink
from repro.sim import RunawaySimulation, Simulator

#: Run a test once without a sink and once with a fresh DeterminismSink.
with_and_without_sink = pytest.mark.parametrize(
    "make_sink", [None, DeterminismSink], ids=["no-sink", "sink"]
)


def _simulator(make_sink):
    return Simulator(trace_sink=make_sink() if make_sink is not None else None)


def _ticker(sim, period=10):
    while True:
        yield sim.timeout(period)


def _finite(sim, steps=5):
    for _ in range(steps):
        yield sim.timeout(10)
    return sim.now


def _mixed(sim, start):
    """Direct delays interleaved with pooled timeouts.

    No any-of waits: a Condition sits in a reference cycle, so when its
    timeouts return to the pool would depend on the cyclic collector.
    """
    yield start
    for step in range(60):
        if step % 3:
            yield step % 5
        else:
            yield sim.timeout(7)


@with_and_without_sink
def test_max_events_raises_runaway(make_sink):
    sim = _simulator(make_sink)
    sim.process(_ticker(sim))
    with pytest.raises(RunawaySimulation) as excinfo:
        sim.run(max_events=100)
    err = excinfo.value
    assert err.events_processed == 100
    assert "max_events=100" in str(err)
    assert err.last_event is not None


@with_and_without_sink
def test_max_sim_time_raises_runaway(make_sink):
    sim = _simulator(make_sink)
    sim.process(_ticker(sim, period=1000))
    with pytest.raises(RunawaySimulation) as excinfo:
        sim.run(max_sim_time=5000)
    err = excinfo.value
    assert err.sim_time_ns <= 5000
    assert "max_sim_time=5000" in str(err)
    assert err.last_event is not None


def test_generous_limits_do_not_interfere():
    sim = Simulator()
    proc = sim.process(_finite(sim))
    value = sim.run(until=proc, max_events=10_000, max_sim_time=10_000_000)
    assert value == 50
    assert sim.now == 50


def test_generous_limits_leave_a_traced_run_unchanged():
    """Limits that never trip change neither the schedule nor the pool."""

    def traced_run(**limits):
        sink = DeterminismSink()
        sim = Simulator(trace_sink=sink)
        for start in range(4):
            sim.process(_mixed(sim, start))
        sim.run(**limits)
        counters = (sim.timeouts_created, sim.timeouts_reused, sim.ticks_rearmed)
        return sink.schedule_hash, counters

    assert traced_run() == traced_run(max_events=1_000_000, max_sim_time=10**9)


def test_invalid_watchdog_arguments_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.run(max_events=0)
    with pytest.raises(ValueError):
        sim.run(max_sim_time=-1)


@with_and_without_sink
def test_failed_until_event_propagates_exception(make_sink):
    """A crashing main process must raise out of run(), not return."""

    class Boom(Exception):
        pass

    def crasher(sim):
        yield sim.timeout(5)
        raise Boom("the main process died")

    sim = _simulator(make_sink)
    proc = sim.process(crasher(sim))
    with pytest.raises(Boom, match="the main process died"):
        sim.run(until=proc)
