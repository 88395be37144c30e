"""Behavioural coverage of the kernel's fast paths.

The direct-delay yield protocol (``yield n`` for ``sim.timeout(n)``),
the recycled per-process Timeout carrier, the Timeout free-list pool,
and the ``timeouts_created`` / ``timeouts_reused`` / ``ticks_rearmed``
counters -- on both the sink-free and the checked event loops.
"""

from __future__ import annotations

import pytest

from repro.analyze import DeterminismSink
from repro.sim import Simulator
from repro.sim.errors import Interrupt


def test_direct_delay_advances_time_and_returns_none():
    sim = Simulator()
    log = []

    def proc(sim):
        got = yield 7
        log.append((sim.now, got))
        got = yield 0  # zero-delay yields are legal, like timeout(0)
        log.append((sim.now, got))

    sim.process(proc(sim), name="p")
    sim.run()
    assert log == [(7, None), (7, None)]


def test_direct_delay_matches_timeout_schedule():
    """``yield n`` and ``yield sim.timeout(n)`` produce one schedule."""
    def body(sim, direct):
        for delay in (3, 5, 2):
            if direct:
                yield delay
            else:
                yield sim.timeout(delay)

    hashes = []
    for direct in (True, False):
        sink = DeterminismSink()
        sim = Simulator(trace_sink=sink)
        sim.process(body(sim, direct), name="p")
        sim.run()
        assert sim.now == 10
        hashes.append(sink.schedule_hash)
    assert hashes[0] == hashes[1]


def test_negative_direct_delay_crashes_the_process():
    sim = Simulator()

    def proc(sim):
        yield -1

    sim.process(proc(sim), name="bad")
    with pytest.raises(ValueError, match="negative delay"):
        sim.run()


def test_no_stale_value_after_valued_timeout():
    """The recycled carrier must not leak a previous timeout's value."""
    sim = Simulator()
    log = []

    def proc(sim):
        got = yield sim.timeout(3, value="payload")
        log.append(got)
        got = yield 4
        log.append(got)
        got = yield sim.timeout(1)
        log.append(got)

    sim.process(proc(sim), name="p")
    sim.run()
    assert log == ["payload", None, None]


def test_interrupt_during_direct_delay():
    sim = Simulator()
    log = []

    def sleeper(sim):
        try:
            yield 1000
        except Interrupt as interrupt:
            log.append((sim.now, interrupt.cause))
        yield 5  # the carrier must still be usable afterwards
        log.append(sim.now)

    def interrupter(sim, victim):
        yield 10
        victim.interrupt(cause="wakeup")

    victim = sim.process(sleeper(sim), name="sleeper")
    sim.process(interrupter(sim, victim), name="interrupter")
    sim.run()
    assert log == [(10, "wakeup"), 15]


@pytest.mark.parametrize("traced", [False, True, "watched"])
def test_tick_rearm_counters(traced):
    """A long direct-delay chain allocates at most two Timeouts.

    The sink-free loop re-arms the one carrier in place.  The checked
    loop, with a sink attached (``True``) or only a watchdog set
    (``"watched"``), resumes the process generically: each tick draws a
    carrier from the pool and the popped one goes back into it.
    """
    sink = DeterminismSink() if traced is True else None
    sim = Simulator(trace_sink=sink)

    def chain(sim):
        for _ in range(500):
            yield 2

    sim.process(chain(sim), name="chain")
    sim.run(max_events=10_000 if traced == "watched" else None)
    assert sim.now == 1000
    if traced is False:
        assert sim.ticks_rearmed >= 499
        # One Initialize-era allocation at most; the chain itself recycles.
        assert sim.timeouts_created <= 1
    else:
        assert sim.ticks_rearmed + sim.timeouts_reused >= 498
        assert sim.timeouts_created <= 2
    if traced is True:
        assert sink.events_processed > 0


def test_timeout_pool_reuses_completed_timeouts():
    sim = Simulator()

    def serial(sim):
        for _ in range(50):
            yield sim.timeout(1)

    sim.process(serial(sim), name="serial")
    sim.run()
    assert sim.timeouts_reused > 0
    assert sim.timeouts_created + sim.timeouts_reused >= 50


def test_simulator_has_slots():
    """The hot-loop object stays dict-free (attribute layout is fixed)."""
    sim = Simulator()
    assert not hasattr(sim, "__dict__")
    with pytest.raises(AttributeError):
        sim.no_such_attribute = 1
