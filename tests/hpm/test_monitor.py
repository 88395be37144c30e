"""Unit tests for the cedarhpm trace monitor and event vocabulary."""

import pytest

from repro.hpm import OS_EVENTS, RTL_EVENTS, CedarHpm, EventType, TraceEvent
from repro.sim import Simulator


def test_event_vocabulary_partition():
    """Every event is either an RTL or an OS event, never both."""
    assert RTL_EVENTS | OS_EVENTS == frozenset(EventType)
    assert not (RTL_EVENTS & OS_EVENTS)
    assert EventType.LOOP_POST in RTL_EVENTS
    assert EventType.SYSCALL_ENTER in OS_EVENTS


def test_record_quantises_to_50ns():
    sim = Simulator()
    hpm = CedarHpm(sim)

    def proc(sim):
        yield sim.timeout(1234)
        hpm.record(EventType.LOOP_POST, processor_id=3)

    sim.process(proc(sim))
    sim.run()
    [event] = hpm.offload()
    assert event.timestamp_ns == 1200
    assert event.processor_id == 3
    assert event.event_type == EventType.LOOP_POST


def test_record_costs_no_simulated_time():
    sim = Simulator()
    hpm = CedarHpm(sim)
    hpm.record(EventType.ITER_START, 0)
    assert sim.now == 0


def test_resolution_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        CedarHpm(sim, resolution_ns=0)


def test_trace_event_equality():
    a = TraceEvent(EventType.ITER_START, 100, 0, 1, None)
    b = TraceEvent(EventType.ITER_START, 100, 0, 1, None)
    c = TraceEvent(EventType.ITER_END, 100, 0, 1, None)
    assert a == b
    assert a != c
    assert a.__eq__(42) is NotImplemented
