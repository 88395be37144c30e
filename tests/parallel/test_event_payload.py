"""The columnar event payload: one encoding for the pool and the cache.

A run's result keeps its events in the monitor's own
:class:`~repro.hpm.events.EventList`, which pickles as columns.  A
round trip must give back every event exactly -- field types included
-- and a damaged column must make a cache entry corrupt rather than
serve a different trace.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hpm.events import EventList, EventType, TraceEvent
from repro.parallel import CACHE_SCHEMA, CellSpec, ResultCache, cell_key, run_cell

SCALE = 0.002
SEED = 1994

atoms = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=4)
)
payloads = st.recursive(
    atoms,
    lambda inner: st.tuples(inner, inner) | st.lists(inner, max_size=3),
    max_leaves=6,
)
events = st.builds(
    TraceEvent,
    event_type=st.sampled_from(EventType),
    timestamp_ns=st.integers(0, 2**31 - 1) | st.integers(2**31, 2**63 - 1),
    processor_id=st.integers(0, 63),
    task_id=st.integers(-1, 8),
    payload=payloads,
)

#: Payloads every example carries: equal under ``==`` but of distinct
#: types, nested tuples, and an unhashable list.
FIXED = (1, True, 1.0, (1, (True, None)), (1.0, ("a", -0.0)), None, "sweep", [1, [2]])


def exactly_equal(a, b) -> bool:
    """``a == b`` with every nested element of the same type too."""
    if type(a) is not type(b):
        return False
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(exactly_equal, a, b))
    if isinstance(a, float):
        return math.copysign(1.0, a) == math.copysign(1.0, b) and a == b
    return a == b


def fields(event: TraceEvent) -> tuple:
    return (
        event.event_type,
        event.timestamp_ns,
        event.processor_id,
        event.task_id,
        event.payload,
    )


def assert_round_trip(original: list[TraceEvent]) -> None:
    revived = pickle.loads(pickle.dumps(EventList(original), pickle.HIGHEST_PROTOCOL))
    assert type(revived) is EventList
    assert len(revived) == len(original)
    for before, after in zip(original, revived):
        assert exactly_equal(fields(after), fields(before))
        assert type(after.event_type) is EventType


@settings(max_examples=150, deadline=None)
@given(drawn=st.lists(events, max_size=40))
def test_round_trip_is_exact(drawn):
    fixed = [
        TraceEvent(EventType.ITER_START, 2**40 + i, i, -1, payload)
        for i, payload in enumerate(FIXED)
    ]
    assert_round_trip(drawn + fixed)


def test_shared_payloads_stay_shared():
    shared = (3, "xdoall", "loop")
    original = [TraceEvent(EventType.PICKUP_ENTER, t, 0, 0, shared) for t in range(5)]
    revived = pickle.loads(pickle.dumps(EventList(original)))
    assert all(event.payload is revived[0].payload for event in revived)


def test_fields_outside_the_int_columns_round_trip():
    original = [
        TraceEvent(EventType.SERIAL_START, 1.5, 0, 0),
        TraceEvent(EventType.SERIAL_END, 2**64, True, None),
    ]
    assert_round_trip(original)


def test_empty_list_round_trips():
    assert_round_trip([])


def test_columns_of_unequal_length_fail_the_load():
    events = EventList([TraceEvent(EventType.LOOP_POST, 10, 0, 0)])
    func, (types, *rest) = events.__reduce__()
    with pytest.raises(ValueError, match="differ in length"):
        func(types + types, *rest)


@pytest.fixture(scope="module")
def snap():
    return run_cell(CellSpec(app="FLO52", n_processors=4, scale=SCALE, seed=SEED))


def test_snapshot_events_are_columnar_and_shared(snap):
    assert type(snap.events) is EventList
    revived = pickle.loads(pickle.dumps(snap, protocol=pickle.HIGHEST_PROTOCOL))
    assert type(revived.events) is EventList
    assert revived.events == snap.events


def test_cache_get_keeps_events_shared(tmp_path, snap):
    cache = ResultCache(tmp_path)
    key = cell_key(CellSpec(app="FLO52", n_processors=4, scale=SCALE, seed=SEED))
    cache.put(key, snap)
    served = cache.get(key)
    assert type(served.events) is EventList
    assert served.events == snap.events


class _UnknownTypeByte(EventList):
    """Pickles like an :class:`EventList` whose type column is damaged."""

    def __reduce__(self):
        func, (types, *rest) = super().__reduce__()
        return func, (b"\xff" + types[1:], *rest)


def test_unknown_event_type_byte_is_corrupt_and_quarantined(tmp_path, snap):
    cache = ResultCache(tmp_path)
    key = cell_key(CellSpec(app="FLO52", n_processors=4, scale=SCALE, seed=SEED))
    damaged = dataclasses.replace(snap, events=_UnknownTypeByte(snap.events), _cache={})
    payload = pickle.dumps(damaged, protocol=pickle.HIGHEST_PROTOCOL)
    envelope = {
        "schema": CACHE_SCHEMA,
        "key": key,
        "digest": hashlib.blake2b(payload, digest_size=16).hexdigest(),
        "payload": payload,
    }
    path = cache.path_for(key)
    path.parent.mkdir(parents=True)
    path.write_bytes(pickle.dumps(envelope))
    assert cache.get(key) is None
    assert (cache.corrupt, cache.quarantined) == (1, 1)
    assert not path.exists()
    assert (tmp_path / "quarantine" / path.name).exists()
