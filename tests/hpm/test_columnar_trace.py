"""A run's trace stays in columns from the first record to the cache.

``CedarHpm.record`` appends straight into the columns of one
:class:`~repro.hpm.events.EventList`, and everything a sweep reads from
a cell -- its result, the pickle a pool or the cache carries, Tables
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
    fresh = {
        n: run_application(
            flo52(),
            n,
            scale=SCALE,
            os_params=XylemParams(seed=1994),
            iteration_events=True,
        )
        for n in (1, 8)
    }
    revived = {
        n: pickle.loads(pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL))
        for n, result in fresh.items()
    }
    for n in (1, 8):
        assert type(fresh[n].events) is type(revived[n].events) is EventList
        assert len(revived[n].events) == len(fresh[n].events) > 0
    tables = [
        (table3({"FLO52": cells})[0], table4({"FLO52": cells})[0])
        for cells in (fresh, revived)
    ]
    assert tables[0] == tables[1]
    for n in (1, 8):
        assert fingerprint_result(revived[n]).digest == fingerprint_result(fresh[n]).digest
        assert (
            collect_run_metrics(revived[n]).value("hpm.events.iter_start")
            == collect_run_metrics(fresh[n]).value("hpm.events.iter_start")
            > 0
        )
    with pytest.raises(AssertionError, match="a TraceEvent was built"):
        revived[8].events[0]
