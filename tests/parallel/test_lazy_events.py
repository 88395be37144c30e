"""Served results answer Tables 3-4 and Figures 5-9 without reading their trace.

An unpickled :class:`~repro.hpm.events.EventList` holds only its
narrowed columns and builds a :class:`TraceEvent` only when someone
reads an event, and a pickled result carries the
:func:`~repro.core.concurrency.loop_index` Tables 3 and 4 read and the
:func:`~repro.core.breakdown.user_breakdowns` Figures 5-9 read.  A
warm ``tables`` run therefore builds no :class:`TraceEvent` at all.
These tests pin that down, and that the carried index is exactly the
one a rescan of the events gives.
"""

from __future__ import annotations

import dataclasses
import pickle
from array import array

import pytest

from repro.core.breakdown import user_breakdowns
from repro.core.concurrency import loop_index
from repro.core.experiments import figure_user_breakdown, table3, table4
from repro.core.reference import APPS
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
def sweep(default_paper_cells):
    """The 25 cells as a pool delivers them: pickle round trips of results.

    Like pooled and served results, each arrives with columnar events
    and a carried index.
    """
    return {
        app: {n: _round_trip(result) for n, result in by_config.items()}
        for app, by_config in default_paper_cells.items()
    }


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


def test_warm_figures_scan_no_events(sweep, tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)
    for n in (1, 32):
        cache.put(_spec("ADM", n).key(), sweep["ADM"][n])
    expected = figure_user_breakdown("ADM", {n: sweep["ADM"][n] for n in (1, 32)})
    monkeypatch.setattr(EventList, "rows", _refuse_to_build)
    served = {n: cache.get(_spec("ADM", n).key()) for n in (1, 32)}
    assert figure_user_breakdown("ADM", served) == expected


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
    return dataclasses.replace(snap, events=EventList(events), _cache={})


def test_orphan_close_still_fails_after_a_cache_round_trip(sweep, tmp_path):
    snap = sweep["FLO52"][4]
    orphan = TraceEvent(EventType.PICKUP_EXIT, snap.ct_ns, 0, 0, None)
    broken = _with_events(snap, [*snap.events, orphan])
    cache = ResultCache(tmp_path)
    key = _spec("FLO52", 4).key()
    cache.put(key, broken)
    served = cache.get(key)
    assert "loop_index" not in served._cache
    with pytest.raises(ValueError, match="PICKUP_EXIT without matching PICKUP_ENTER"):
        table3({"FLO52": {4: served}})


def test_only_the_loop_index_and_breakdowns_are_carried(sweep):
    snap = _with_events(sweep["MDG"][8], sweep["MDG"][8].events)
    snap._cache["intervals"] = []
    revived = _round_trip(snap)
    assert set(revived._cache) == {"loop_index", "user_breakdowns"}
    assert revived._cache["user_breakdowns"] == user_breakdowns(
        dataclasses.replace(revived, _cache={})
    )


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
