"""Round-trip tests for the run-report and Chrome-trace exporters."""

import json

import pytest

from repro.core import run_phases
from repro.hardware.config import paper_configuration
from repro.obs import (
    REPORT_SCHEMA_VERSION,
    Observability,
    build_run_report,
    chrome_trace,
    save_chrome_trace,
    save_report,
)
from repro.runtime import LoopConstruct, ParallelLoop, SerialPhase


@pytest.fixture(scope="module")
def result():
    """A small synthetic app on the 4-CE configuration."""
    phases = [
        SerialPhase(work_ns=50_000),
        ParallelLoop(
            construct=LoopConstruct.SDOALL,
            n_outer=4,
            n_inner=8,
            work_ns_per_iter=10_000,
            mem_words_per_iter=64,
            mem_rate=0.5,
        ),
        SerialPhase(work_ns=20_000),
    ]
    return run_phases(
        phases,
        4,
        app_name="synthetic",
        config=paper_configuration(4),
        iteration_events=True,
    )


def test_report_round_trips_through_json(result, tmp_path):
    obs = Observability()
    obs.collect(result)
    report = build_run_report(result, obs.registry)
    path = tmp_path / "report.json"
    save_report(report, path)
    loaded = json.loads(path.read_text())
    assert loaded == json.loads(json.dumps(report))
    assert loaded["schema_version"] == REPORT_SCHEMA_VERSION
    assert loaded["app"] == "synthetic"
    assert loaded["n_processors"] == 4
    assert loaded["seed"] == 1994
    assert loaded["config"]["n_memory_modules"] == 32
    assert loaded["ct_ns"] == result.ct_ns
    assert loaded["wall_s"] > 0
    assert loaded["metrics"]
    assert loaded["metrics"]["run.ct_ns"]["value"] == result.ct_ns


def test_report_includes_profile_when_collected():
    obs = Observability(profile=True)
    phases = [SerialPhase(work_ns=10_000)]
    result = run_phases(
        phases, 4, app_name="tiny", config=paper_configuration(4), obs=obs
    )
    report = build_run_report(result, obs.registry, obs.profiler)
    assert "profile" in report
    assert report["profile"]["processes"]
    json.dumps(report)  # must be serialisable


def test_chrome_trace_schema(result):
    doc = chrome_trace(result)
    events = doc["traceEvents"]
    assert events
    for event in events:
        assert set(event) >= {"ph", "ts", "pid", "tid", "name"}
        assert event["ph"] in {"M", "X"}
    durations = [e for e in events if e["ph"] == "X"]
    assert {"pickup", "iteration"} <= {e["name"] for e in durations}
    for event in durations:
        assert event["dur"] >= 0
        assert 0 <= event["ts"] <= result.ct_ns / 1000


def test_chrome_trace_has_one_track_per_ce_and_bank(result):
    events = chrome_trace(result)["traceEvents"]
    ce_tracks = {
        e["tid"]
        for e in events
        if e["ph"] == "M" and e["name"] == "thread_name" and e["pid"] == 0
    }
    assert ce_tracks == set(range(4))
    # The CE process is the only one: no global-memory bank tracks.
    assert {e["pid"] for e in events} == {0}


def test_chrome_trace_file_is_valid_json(result, tmp_path):
    path = tmp_path / "trace.json"
    save_chrome_trace(result, path)
    loaded = json.loads(path.read_text())
    assert loaded["traceEvents"]
    assert loaded["otherData"]["app"] == "synthetic"

