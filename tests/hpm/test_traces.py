"""Unit tests for trace persistence and summaries."""

from repro.hpm import EventType, TraceEvent, load_trace, save_trace, trace_summary


def make_events():
    return [
        TraceEvent(EventType.LOOP_POST, 100, 0, 0, (1, "sdoall", "sweep")),
        TraceEvent(EventType.HELPER_JOIN, 150, 8, 1, (1, "sdoall", "sweep")),
        TraceEvent(EventType.ITER_START, 200, 8, 1, (1, "sdoall", "sweep", 4)),
        TraceEvent(EventType.ITER_END, 400, 8, 1, (1, "sdoall", "sweep", 4)),
    ]


def test_save_load_round_trip(tmp_path):
    events = make_events()
    path = tmp_path / "trace.jsonl"
    count = save_trace(events, path)
    assert count == 4
    loaded = load_trace(path)
    assert loaded == events


def test_round_trip_preserves_tuple_payloads(tmp_path):
    events = make_events()
    path = tmp_path / "trace.jsonl"
    save_trace(events, path)
    loaded = load_trace(path)
    assert loaded[0].payload == (1, "sdoall", "sweep")
    assert isinstance(loaded[0].payload, tuple)


def test_round_trip_none_payload(tmp_path):
    events = [TraceEvent(EventType.PROGRAM_START, 0, 0)]
    path = tmp_path / "t.jsonl"
    save_trace(events, path)
    [event] = load_trace(path)
    assert event.payload is None
    assert event.task_id == -1


def test_empty_trace(tmp_path):
    path = tmp_path / "empty.jsonl"
    assert save_trace([], path) == 0
    assert load_trace(path) == []


def test_summary_counts():
    summary = trace_summary(make_events())
    assert summary["events"] == 4
    assert summary["span_ns"] == 300
    assert summary["by_type"]["ITER_START"] == 1
    assert summary["by_processor"][8] == 3


def test_summary_empty():
    summary = trace_summary([])
    assert summary["events"] == 0
    assert summary["span_ns"] == 0


def test_round_trip_from_real_run(tmp_path):
    from repro.apps import synthetic_app
    from repro.core import run_application

    app = synthetic_app(n_steps=1, loops_per_step=1, n_outer=4, n_inner=8)
    result = run_application(app, 8, scale=1.0, iteration_events=True)
    path = tmp_path / "run.jsonl"
    save_trace(result.events, path)
    assert load_trace(path) == result.events
