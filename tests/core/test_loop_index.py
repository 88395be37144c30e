"""The one-pass loop index against the straightforward per-task scan.

:func:`repro.core.concurrency.loop_index` reads a run's trace once for
every task's parallel-loop regions and the main task's main
cluster-only loop spans.  The reference below is the obvious
implementation it replaced -- one trace scan per (result, task) query
plus the full interval list for the MC-loop spans -- kept here only as
the oracle.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.apps import PAPER_APPS
from repro.core import concurrency, contention
from repro.core.concurrency import loop_index, loop_regions
from repro.core.contention import t1_split_ns, tp_actual_ns
from repro.core.experiments import table3, table4
from repro.core.reference import APPS, CONFIGS
from repro.core.runner import run_application
from repro.core.trace_analysis import IntervalKind, extract_intervals
from repro.hpm.events import EventType, TraceEvent
from repro.xylem.params import XylemParams

SCALE = 0.002
SEED = 1994


def _seq(payload):
    if isinstance(payload, tuple) and payload:
        return payload[0]
    return payload


def reference_loop_regions(result, task_id):
    regions = []
    if task_id == 0:
        post_ns = {}
        for event in result.events:
            if event.task_id != 0:
                continue
            if event.event_type == EventType.LOOP_POST:
                post_ns[_seq(event.payload)] = event.timestamp_ns
            elif event.event_type == EventType.BARRIER_ENTER:
                start = post_ns.pop(_seq(event.payload), None)
                if start is not None:
                    regions.append((start, event.timestamp_ns))
        for interval in extract_intervals(result.events, end_ns=result.ct_ns):
            if interval.task_id == 0 and interval.kind is IntervalKind.MC_LOOP:
                regions.append((interval.start_ns, interval.end_ns))
    else:
        join_ns = {}
        for event in result.events:
            if event.task_id != task_id:
                continue
            if event.event_type == EventType.HELPER_JOIN:
                join_ns[_seq(event.payload)] = event.timestamp_ns
            elif event.event_type == EventType.LOOP_DETACH:
                start = join_ns.pop(_seq(event.payload), None)
                if start is not None:
                    regions.append((start, event.timestamp_ns))
    regions.sort()
    return regions


def reference_tp_actual_ns(result):
    return float(sum(end - start for start, end in reference_loop_regions(result, 0)))


def reference_t1_split_ns(result):
    t1_mc = 0.0
    for interval in extract_intervals(result.events, end_ns=result.ct_ns):
        if interval.task_id == 0 and interval.kind is IntervalKind.MC_LOOP:
            t1_mc += interval.duration_ns
    return t1_mc, max(0.0, reference_tp_actual_ns(result) - t1_mc)


@pytest.fixture(scope="module")
def sweep():
    return {
        app: {
            n: run_application(
                PAPER_APPS[app](), n, scale=SCALE, os_params=XylemParams(seed=SEED)
            )
            for n in CONFIGS
        }
        for app in APPS
    }


def test_index_matches_the_per_task_scan(sweep):
    for app, by_config in sweep.items():
        for n, result in by_config.items():
            for task in range(result.config.n_clusters):
                assert loop_regions(result, task) == reference_loop_regions(
                    result, task
                ), (app, n, task)
            assert tp_actual_ns(result) == reference_tp_actual_ns(result), (app, n)
        base = by_config[1]
        assert t1_split_ns(base) == reference_t1_split_ns(base), app


def test_tables_3_and_4_match_the_per_task_scan(sweep, monkeypatch):
    rows3, _ = table3(sweep)
    rows4, _ = table4(sweep)
    for by_config in sweep.values():
        for result in by_config.values():
            result._cache.clear()
    monkeypatch.setattr(concurrency, "loop_regions", reference_loop_regions)
    monkeypatch.setattr(contention, "loop_regions", reference_loop_regions)
    monkeypatch.setattr(contention, "t1_split_ns", reference_t1_split_ns)
    monkeypatch.setattr(contention, "loop_index", None)  # the oracle must not use it
    assert table3(sweep)[0] == rows3
    assert table4(sweep)[0] == rows4


def test_index_is_built_once_per_result(sweep):
    result = sweep["FLO52"][32]
    result._cache.clear()
    table3({"FLO52": {32: result}})
    index = result._cache["loop_index"]
    table3({"FLO52": {32: result}})
    assert result._cache["loop_index"] is index
    assert "intervals" not in result._cache


@pytest.fixture(scope="module")
def small():
    return run_application(
        PAPER_APPS["FLO52"](), 4, scale=SCALE, os_params=XylemParams(seed=SEED)
    )


def _with_events(result, events):
    return dataclasses.replace(result, events=events, _cache={})


def test_table3_raises_on_an_orphan_close(small):
    orphan = TraceEvent(EventType.PICKUP_EXIT, small.ct_ns, 0, 0, None)
    broken = _with_events(small, [*small.events, orphan])
    with pytest.raises(ValueError, match="PICKUP_EXIT without matching PICKUP_ENTER"):
        table3({"FLO52": {4: broken}})


def test_unclosed_mc_loop_closes_at_completion_time(small):
    payload = (None, "cluster_only", "tail")
    events = [
        TraceEvent(EventType.MC_LOOP_START, 100, 0, 0, payload),
        TraceEvent(EventType.MC_LOOP_END, 300, 0, 0, payload),
        TraceEvent(EventType.MC_LOOP_START, 500, 0, 0, payload),
    ]
    result = _with_events(small, events)
    index = loop_index(result)
    assert index.mc_spans == [(100, 300), (500, small.ct_ns)]
    assert loop_regions(result, 0) == [(100, 300), (500, small.ct_ns)]
    assert loop_regions(result, 0) == reference_loop_regions(result, 0)
