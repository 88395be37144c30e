"""Unit tests for trace interval reconstruction."""

import pytest

from repro.core.trace_analysis import (
    Interval,
    IntervalKind,
    extract_intervals,
    intervals_of,
)
from repro.hpm.events import EventList, EventType, TraceEvent


def ev(event_type, t, ce=0, task=0, payload=None):
    return TraceEvent(event_type, t, ce, task, payload)


def test_simple_pairing():
    events = [
        ev(EventType.SERIAL_START, 100),
        ev(EventType.SERIAL_END, 250),
    ]
    [interval] = extract_intervals(EventList(events))
    assert interval.kind is IntervalKind.SERIAL
    assert interval.start_ns == 100
    assert interval.end_ns == 250
    assert interval.duration_ns == 150


def test_pairing_is_per_processor():
    events = [
        ev(EventType.ITER_START, 10, ce=0),
        ev(EventType.ITER_START, 20, ce=1),
        ev(EventType.ITER_END, 30, ce=1),
        ev(EventType.ITER_END, 50, ce=0),
    ]
    intervals = extract_intervals(EventList(events))
    by_ce = {iv.processor_id: iv for iv in intervals}
    assert by_ce[0].duration_ns == 40
    assert by_ce[1].duration_ns == 10


def test_nested_same_kind_pairs_lifo():
    events = [
        ev(EventType.INTERRUPT_ENTER, 10),
        ev(EventType.INTERRUPT_ENTER, 20),
        ev(EventType.INTERRUPT_EXIT, 30),
        ev(EventType.INTERRUPT_EXIT, 50),
    ]
    intervals = extract_intervals(EventList(events))
    durations = sorted(iv.duration_ns for iv in intervals)
    assert durations == [10, 40]


def test_unmatched_close_raises():
    with pytest.raises(ValueError):
        extract_intervals(EventList([ev(EventType.ITER_END, 10)]))


def test_unclosed_interval_dropped_without_end():
    intervals = extract_intervals(EventList([ev(EventType.ITER_START, 10)]))
    assert intervals == []


def test_unclosed_interval_closed_at_end_ns():
    [interval] = extract_intervals(EventList([ev(EventType.ITER_START, 10)]), end_ns=100)
    assert interval.end_ns == 100


def test_point_events_ignored():
    events = [
        ev(EventType.LOOP_POST, 10),
        ev(EventType.HELPER_JOIN, 20),
        ev(EventType.LOOP_DETACH, 30),
    ]
    assert extract_intervals(EventList(events)) == []


def test_intervals_sorted_by_start():
    events = [
        ev(EventType.ITER_START, 50, ce=0),
        ev(EventType.ITER_END, 60, ce=0),
        ev(EventType.ITER_START, 10, ce=1),
        ev(EventType.ITER_END, 20, ce=1),
    ]
    intervals = extract_intervals(EventList(events))
    assert [iv.start_ns for iv in intervals] == [10, 50]


def test_payload_accessors():
    events = [
        ev(EventType.PICKUP_ENTER, 10, payload=(3, "xdoall", "loop-a", 1)),
        ev(EventType.PICKUP_EXIT, 15),
    ]
    [interval] = extract_intervals(EventList(events))
    assert interval.construct == "xdoall"
    assert interval.loop_seq == 3


def test_payload_accessors_without_payload():
    interval = Interval(IntervalKind.SERIAL, 0, 0, 0, 10, payload=None)
    assert interval.construct is None
    assert interval.loop_seq is None


def test_intervals_of_filters():
    intervals = [
        Interval(IntervalKind.PICKUP, 0, 0, 0, 10, payload=(1, "xdoall")),
        Interval(IntervalKind.PICKUP, 0, 1, 0, 10, payload=(1, "sdoall")),
        Interval(IntervalKind.BARRIER, 0, 0, 0, 10),
    ]
    assert len(intervals_of(intervals, IntervalKind.PICKUP)) == 2
    assert len(intervals_of(intervals, IntervalKind.PICKUP, task_id=0)) == 1
    assert len(intervals_of(intervals, IntervalKind.PICKUP, construct="xdoall")) == 1
    assert len(intervals_of(intervals, IntervalKind.BARRIER)) == 1
