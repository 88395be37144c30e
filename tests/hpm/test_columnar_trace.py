"""A run's trace stays in columns from the first record to the cache.

``CedarHpm.record`` appends straight into the columns of one
:class:`~repro.hpm.events.EventList`, and everything a sweep reads from
a cell -- its snapshot, the pickle a pool or the cache carries, Tables
3 and 4, the result fingerprint and the run metrics -- reads those
columns as rows.  With :class:`TraceEvent` made unbuildable, a small
cell must still go all the way through.
"""

from __future__ import annotations

import pickle

import pytest

from repro.analyze.race import fingerprint_result
from repro.apps import flo52
from repro.core.experiments import table3, table4
from repro.core.runner import run_application
from repro.hpm.events import EventList, TraceEvent
from repro.obs import collect_run_metrics
from repro.xylem.params import XylemParams

SCALE = 0.002


def _refuse(*args, **kwargs):
    raise AssertionError("a TraceEvent was built")


def test_a_cell_goes_from_record_to_cache_without_a_trace_event(monkeypatch):
    monkeypatch.setattr(TraceEvent, "__init__", _refuse)
    live = {
        n: run_application(
            flo52(),
            n,
            scale=SCALE,
            os_params=XylemParams(seed=1994),
            iteration_events=True,
        )
        for n in (1, 8)
    }
    snaps = {n: result.portable() for n, result in live.items()}
    revived = {
        n: pickle.loads(pickle.dumps(snap, protocol=pickle.HIGHEST_PROTOCOL))
        for n, snap in snaps.items()
    }
    for n in (1, 8):
        assert type(live[n].events) is EventList
        assert snaps[n].events is live[n].events is live[n].hpm.events
        assert revived[n].events is revived[n].hpm.events
        assert len(revived[n].events) == len(live[n].events) > 0
    tables = [
        (table3({"FLO52": cells})[0], table4({"FLO52": cells})[0])
        for cells in (live, revived)
    ]
    assert tables[0] == tables[1]
    for n in (1, 8):
        assert fingerprint_result(revived[n]).digest == fingerprint_result(live[n]).digest
        assert (
            collect_run_metrics(revived[n]).value("hpm.events.iter_start")
            == collect_run_metrics(live[n]).value("hpm.events.iter_start")
            > 0
        )
    with pytest.raises(AssertionError, match="a TraceEvent was built"):
        revived[8].events[0]
