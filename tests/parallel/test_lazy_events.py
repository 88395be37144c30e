"""Served results answer Tables 3-4 without decoding their trace.

An unpickled :class:`~repro.hpm.events.EventList` holds only its
columns until someone reads an event, and a pickled snapshot carries
the :func:`~repro.core.concurrency.loop_index` Tables 3 and 4 read.  A
warm ``tables`` run therefore builds no :class:`TraceEvent` at all.
These tests pin that down, and that the carried index is exactly the
one a rescan of the decoded events gives.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
from array import array

import pytest

from repro.core.breakdown import user_breakdown
from repro.core.concurrency import loop_index
from repro.core.experiments import table3, table4
from repro.core.reference import APPS, CONFIGS
from repro.core.resilience import resilient_sweep
from repro.core.trace_analysis import IntervalKind, extract_intervals
from repro.hpm import events as events_module
from repro.hpm.events import EventList, EventType, TraceEvent
from repro.parallel import CellSpec, ResultCache
from tests.core.test_loop_index import reference_loop_regions

SCALE = 0.002
SEED = 1994


def _spec(app: str, n: int) -> CellSpec:
    return CellSpec(app=app, n_processors=n, scale=SCALE, seed=SEED)


def _round_trip(obj):
    return pickle.loads(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


@pytest.fixture(scope="module")
def sweep():
    """The 25 cells, through a pool when the host has the cores for one.

    Pooled results arrive pickled, with undecoded events and a carried
    index, exactly as served ones do.
    """
    jobs = min(2, os.cpu_count() or 1)
    outcome = resilient_sweep(APPS, CONFIGS, scale=SCALE, seed=SEED, jobs=jobs)
    assert outcome.ok, outcome.failures
    return outcome.results


def _refuse_to_build(*args, **kwargs):
    raise AssertionError("a served result decoded its trace")


def test_warm_read_decodes_nothing(sweep, tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)
    for app in APPS:
        for n in (1, 8):
            cache.put(_spec(app, n).key(), sweep[app][n])
    expected3, expected4 = table3(sweep)[0], table4(sweep)[0]
    monkeypatch.setattr(events_module, "TraceEvent", _refuse_to_build)
    served = {
        app: {n: cache.get(_spec(app, n).key()) for n in (1, 8)} for app in APPS
    }
    assert cache.hits == 10 and cache.corrupt == 0
    for app in APPS:
        for n in (1, 8):
            assert len(served[app][n].events) == len(sweep[app][n].events)
    rows3, _ = table3(served)
    rows4, _ = table4(served)
    assert rows3 == [row for row in expected3 if row[1] == 8]
    assert rows4 == [row for row in expected4 if row[1] in (1, 8)]


def test_carried_index_is_the_index_of_the_decoded_events(sweep):
    for app, by_config in sweep.items():
        for n, snap in by_config.items():
            revived = _round_trip(snap)
            carried = revived._cache["loop_index"]
            assert loop_index(dataclasses.replace(revived, _cache={})) == carried
            for task in range(revived.config.n_clusters):
                assert sorted(carried.regions.get(task, [])) == (
                    reference_loop_regions(revived, task)
                ), (app, n, task)
            mc_spans = [
                (interval.start_ns, interval.end_ns)
                for interval in extract_intervals(revived.events, end_ns=revived.ct_ns)
                if interval.task_id == 0 and interval.kind is IntervalKind.MC_LOOP
            ]
            assert sorted(carried.mc_spans) == sorted(mc_spans), (app, n)


def _with_events(snap, events):
    events = EventList(events)
    hpm = dataclasses.replace(snap.hpm, events=events)
    return dataclasses.replace(snap, events=events, hpm=hpm, _cache={})


def test_orphan_close_still_fails_after_a_cache_round_trip(sweep, tmp_path):
    snap = sweep["FLO52"][4]
    orphan = TraceEvent(EventType.PICKUP_EXIT, snap.ct_ns, 0, 0, None)
    broken = _with_events(snap, [*snap.events, orphan])
    cache = ResultCache(tmp_path)
    key = _spec("FLO52", 4).key()
    cache.put(key, broken)
    served = cache.get(key)
    assert "loop_index" not in served._cache
    assert served.events is served.hpm.events
    with pytest.raises(ValueError, match="PICKUP_EXIT without matching PICKUP_ENTER"):
        table3({"FLO52": {4: served}})


def test_only_the_loop_index_is_carried(sweep):
    snap = _with_events(sweep["MDG"][8], sweep["MDG"][8].events)
    user_breakdown(snap, 0)
    assert "intervals" in snap._cache
    revived = _round_trip(snap)
    assert set(revived._cache) == {"loop_index"}
    assert revived.events is revived.hpm.events


def test_an_undecoded_list_repickles_the_columns_it_was_loaded_with(sweep):
    load, columns = EventList(sweep["OCEAN"][16].events).__reduce__()
    loaded = load(*columns)
    reload, again = loaded.__reduce__()
    assert reload is load
    assert len(again) == len(columns)
    assert all(after is before for after, before in zip(again, columns))
    assert loaded == sweep["OCEAN"][16].events


def test_a_decoded_list_compares_equal_to_a_list(sweep):
    events = list(sweep["ARC2D"][8].events)
    revived = _round_trip(EventList(events))
    assert revived == events and events == revived
    assert revived[0] == events[0] and revived[-3:] == events[-3:]


@pytest.mark.parametrize("slot", [1, -1])
def test_a_payload_index_out_of_range_fails_the_load(slot):
    events = EventList([TraceEvent(EventType.LOOP_POST, 10, 0, 0, "loop")])
    load, (*columns, _) = events.__reduce__()
    with pytest.raises(ValueError, match="payload index out of range"):
        load(*columns, array("b", [slot]))
