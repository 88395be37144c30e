"""CLI tests for the observability commands and flags."""

import json

import pytest

from repro.cli import main
from repro.hpm import load_trace, load_trace_meta


def test_stats_command(tmp_path, capsys):
    out_file = tmp_path / "stats.json"
    main(["stats", "flo52", "4", "-o", str(out_file), "--scale", "0.005"])
    out = capsys.readouterr().out
    assert "wrote run report" in out
    report = json.loads(out_file.read_text())
    assert report["app"] == "FLO52"
    assert report["n_processors"] == 4
    assert report["metrics"]
    assert report["config"]["cycle_ns"] == 170


def test_profile_command(capsys):
    main(["profile", "flo52", "4", "--scale", "0.005", "-k", "3"])
    out = capsys.readouterr().out
    assert "top by host wall time" in out
    assert "top by simulated time" in out
    # The profiled run is the default program: fused children's host
    # time lands on the task that runs them, and no statfx sampler
    # process exists.
    assert "cdoall-ce" in out
    assert "statfx" not in out


def test_run_with_stats_flag(tmp_path, capsys):
    out_file = tmp_path / "run-stats.json"
    main(["run", "flo52", "4", "--scale", "0.005", "--stats", str(out_file)])
    out = capsys.readouterr().out
    assert "wrote run report" in out
    report = json.loads(out_file.read_text())
    assert report["app"] == "FLO52"


def test_sweep_with_stats_flag(tmp_path, capsys):
    out_file = tmp_path / "sweep-stats.json"
    main(
        ["sweep", "flo52", "--scale", "0.005", "--stats", str(out_file), "--jobs", "1"]
    )
    capsys.readouterr()
    reports = json.loads(out_file.read_text())
    assert isinstance(reports, list)
    assert [r["n_processors"] for r in reports] == [1, 4, 8, 16, 32]


def test_trace_command_writes_meta_header(tmp_path, capsys):
    out_file = tmp_path / "trace.jsonl"
    main(["trace", "flo52", "4", "-o", str(out_file), "--scale", "0.005"])
    capsys.readouterr()
    first = json.loads(out_file.read_text().splitlines()[0])
    assert "meta" in first
    meta = load_trace_meta(out_file)
    assert meta["app"] == "FLO52"
    assert meta["seed"] == 1994
    assert meta["config"]["n_memory_modules"] == 32
    # The header must not confuse the event loader.
    events = load_trace(out_file)
    assert events
    assert len(events) == len(out_file.read_text().splitlines()) - 1


def test_sweep_with_campaign_log_and_report_round_trip(tmp_path, capsys):
    """sweep --log writes a campaign log; the report command rebuilds
    the same summary and exports JSON + Perfetto artifacts."""
    log = tmp_path / "campaign.jsonl"
    main(
        [
            "sweep",
            "flo52",
            "--scale",
            "0.002",
            "--log",
            str(log),
            "--jobs",
            "1",
        ]
    )
    sweep_out = capsys.readouterr().out
    assert "Table 1" in sweep_out
    assert "campaign sweep FLO52:" in sweep_out
    assert f"wrote campaign log to {log}" in sweep_out
    summary = [ln for ln in sweep_out.splitlines() if ln.startswith("campaign ")]

    report_json = tmp_path / "report.json"
    trace_json = tmp_path / "trace.json"
    main(
        [
            "report",
            str(log),
            "--json",
            str(report_json),
            "--perfetto",
            str(trace_json),
        ]
    )
    report_out = capsys.readouterr().out
    assert summary[0] in report_out
    report = json.loads(report_json.read_text())
    assert report["schema"] == "cedar-repro/campaign-report/v1"
    assert report["cells"]["completed"] == 5
    assert report["latency_s"]["p95"] is not None
    assert report["code_fingerprint"]
    trace = json.loads(trace_json.read_text())
    assert any(e["ph"] == "X" for e in trace["traceEvents"])


def test_report_command_rejects_bad_files(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["report", str(tmp_path / "missing.jsonl")])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err

    foreign = tmp_path / "foreign.jsonl"
    foreign.write_text('{"schema": "other"}\n')
    with pytest.raises(SystemExit) as exc:
        main(["report", str(foreign)])
    assert exc.value.code == 2


def test_stats_surfaces_parallel_and_cache_counters(tmp_path, capsys):
    """stats --jobs/--cache-dir prints the executor's own counters."""
    cache_dir = tmp_path / "cache"
    report = tmp_path / "stats.json"
    main(
        [
            "stats",
            "flo52",
            "4",
            "--scale",
            "0.002",
            "--jobs",
            "2",
            "--cache-dir",
            str(cache_dir),
            "-o",
            str(report),
        ]
    )
    out = capsys.readouterr().out
    assert "parallel execution counters" in out
    assert "parallel.cells.total" in out
    assert "cache.misses" in out
    assert "campaign stats FLO52" in out

    # Warm rerun answers from the cache and says so.
    main(
        [
            "stats",
            "flo52",
            "4",
            "--scale",
            "0.002",
            "--jobs",
            "2",
            "--cache-dir",
            str(cache_dir),
            "-o",
            str(report),
        ]
    )
    out = capsys.readouterr().out
    assert "cache.hits" in out


def test_run_with_progress_flag_forces_progress_line(capsys):
    """--progress enables the reporter even without a TTY."""
    main(["run", "flo52", "4", "--scale", "0.002", "--progress"])
    captured = capsys.readouterr()
    assert "[2/2]" in captured.err
    assert "cells/s" in captured.err
