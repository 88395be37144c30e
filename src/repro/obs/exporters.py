"""Run-report and Chrome-trace exporters.

Two machine-readable views of a finished run:

* :func:`build_run_report` / :func:`save_report` -- a single JSON
  document carrying the machine configuration, workload identity, RNG
  seed, git revision, host wall time and the full metrics snapshot
  (plus the per-process profile when one was collected).  This is the
  artifact the ``stats`` CLI writes and what regression tooling diffs.
* :func:`chrome_trace` / :func:`save_chrome_trace` -- the run's
  reconstructed activity intervals in Chrome trace-event JSON, loadable
  in Perfetto / ``chrome://tracing``: one track per CE under process 0
  showing serial/setup/pickup/iteration/barrier/... intervals.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
from pathlib import Path
from typing import TYPE_CHECKING

from repro.obs.instrument import collect_run_metrics
from repro.obs.registry import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.runner import RunResult
    from repro.obs.profile import ProcessProfiler

__all__ = [
    "REPORT_SCHEMA_VERSION",
    "build_run_report",
    "save_report",
    "chrome_trace",
    "save_chrome_trace",
    "git_revision",
]

#: Bump when the report layout changes incompatibly.
REPORT_SCHEMA_VERSION = 1

_CE_PID = 0


def git_revision() -> str | None:
    """The repository's HEAD commit hash, or ``None`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def build_run_report(
    result: "RunResult",
    registry: MetricsRegistry | None = None,
    profiler: "ProcessProfiler | None" = None,
) -> dict:
    """Assemble the JSON-serialisable run report for *result*.

    *registry* supplies the metrics snapshot; when omitted, a fresh
    registry is populated via
    :func:`~repro.obs.instrument.collect_run_metrics`.
    """
    if registry is None:
        registry = collect_run_metrics(result)
    report: dict[str, object] = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "app": result.app_name,
        "n_processors": result.config.n_processors,
        "scale": result.scale,
        "extrapolation": result.extrapolation,
        "seed": result.os_params.seed,
        "git_sha": git_revision(),
        "config": dataclasses.asdict(result.config),
        "ct_ns": result.ct_ns,
        "ct_seconds": result.ct_seconds,
        "wall_s": result.wall_s,
        "n_trace_events": len(result.events),
        "metrics": registry.snapshot(),
    }
    if profiler is not None:
        report["profile"] = profiler.as_dict()
    return report


def save_report(report: "dict | list[dict]", path: "str | Path") -> None:
    """Write a run report (or a list of them) as indented JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=False)
        fh.write("\n")


# -- Chrome trace-event export ---------------------------------------------


def _metadata_event(pid: int, tid: int, which: str, label: str) -> dict:
    return {
        "ph": "M",
        "pid": pid,
        "tid": tid,
        "ts": 0,
        "name": which,
        "args": {"name": label},
    }


def chrome_trace(result: "RunResult") -> dict:
    """Convert *result* into a Chrome trace-event JSON document.

    Timestamps are microseconds (the format's unit); one simulated
    nanosecond maps to 0.001 us.  Process 0 holds one track per CE with
    "X" (complete) events for every reconstructed activity interval,
    pickups and iterations only if the run had ``iteration_events=True``.
    """
    from repro.core.trace_analysis import extract_intervals

    config = result.config
    events: list[dict] = []
    events.append(_metadata_event(_CE_PID, 0, "process_name", "CEs"))
    for ce_id in range(config.n_processors):
        events.append(_metadata_event(_CE_PID, ce_id, "thread_name", f"ce{ce_id}"))
    for interval in extract_intervals(result.events, end_ns=result.ct_ns):
        args: dict[str, object] = {"task_id": interval.task_id}
        if interval.construct is not None:
            args["construct"] = interval.construct
        events.append(
            {
                "ph": "X",
                "pid": _CE_PID,
                "tid": interval.processor_id,
                "ts": interval.start_ns / 1000,
                "dur": interval.duration_ns / 1000,
                "name": interval.kind.value,
                "cat": "activity",
                "args": args,
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": {
            "app": result.app_name,
            "n_processors": config.n_processors,
            "ct_ns": result.ct_ns,
        },
    }


def save_chrome_trace(result: "RunResult", path: "str | Path") -> None:
    """Write *result*'s Chrome trace-event JSON to *path*."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(chrome_trace(result), fh)
        fh.write("\n")
