"""Campaign-scale telemetry for pooled sweep execution.

The paper's method is measurement-based characterization; this module
applies it to our own heaviest path, the ``repro.parallel`` sweep
executor.  Per-run metrics normally die inside worker processes -- here
every cell is wrapped in a :class:`CellSpan` (queue wait, attempt, run
wall, cache hit/miss, failure kind, result fingerprint, kernel
fast-path counters) and ships a picklable snapshot of the worker's
whole metric registry back with its result.  The coordinator-side
:class:`CampaignTelemetry` then

* merges worker registries into one campaign-level registry
  (``campaign.*`` namespaced, via
  :meth:`~repro.obs.registry.MetricsRegistry.merge_snapshot`);
* appends a structured JSONL event log (schema
  ``cedar-repro/campaign-log/v1``: submit/start/finish/retry/cache-hit
  events with monotonic host timestamps, header tagged with
  ``code_fingerprint()`` and seed);
* drives a live TTY progress line (cells done/total, sustained cells/s,
  rolling p50/p95 cell wall, ETA, pool utilization, cache hit rate);
* exports a campaign-wide Perfetto trace (one track per worker PID,
  cells as slices, cache hits and failed attempts as instant events).

:func:`build_campaign_report` distils a finished log into the SLO
artifact -- sustained throughput, p50/p95/p99 cell latency, pool
utilization, retry/failure/cache breakdown -- surfaced by the
``cedar-repro report`` command.  All host timestamps come from
:mod:`repro.obs.hostclock` (``CDR001``): they describe the *harness*,
never the simulated machine.
"""

from __future__ import annotations

import json
import math
import os
import sys
from collections import Counter as _TallyCounter
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, TYPE_CHECKING, Mapping, Sequence

from repro.obs.hostclock import host_clock_s
from repro.obs.registry import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.record import RunResult
    from repro.parallel.executor import CellSpec

__all__ = [
    "CAMPAIGN_LOG_SCHEMA",
    "CAMPAIGN_REPORT_SCHEMA",
    "CampaignTelemetry",
    "CellSpan",
    "ProgressReporter",
    "build_campaign_report",
    "campaign_chrome_trace",
    "load_campaign_log",
    "render_campaign_report",
    "save_campaign_report",
    "save_campaign_trace",
    "spans_from_log",
]

CAMPAIGN_LOG_SCHEMA = "cedar-repro/campaign-log/v1"
CAMPAIGN_REPORT_SCHEMA = "cedar-repro/campaign-report/v1"

#: Histogram boundaries (seconds) for campaign wall/wait distributions.
_SECONDS_BOUNDARIES = (0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0)

#: Cell walls kept for the progress line's rolling p50/p95.
_ROLLING_WINDOW = 32


@dataclass(frozen=True)
class CellSpan:
    """One attempt at one sweep cell, as the worker saw it.

    Picklable by construction (plain scalars and dicts): built inside
    the pool worker and shipped back beside -- never inside -- the cell
    result, so cached results stay byte-identical to serial ones.
    Timestamps are host-monotonic seconds
    (:func:`~repro.obs.hostclock.host_clock_s`), comparable across
    processes on one host.
    """

    app: str
    n_processors: int
    seed: int
    attempt: int
    worker_pid: int
    #: Coordinator clock when the cell was handed to the pool.
    submit_s: float
    #: Worker clock when execution actually began (queue wait ends).
    start_s: float
    #: Worker clock when the attempt finished (ok or not).
    end_s: float
    #: Host seconds inside the simulation event loop (``result.wall_s``).
    run_wall_s: float
    cache_hit: bool = False
    #: Exception type name for a failed attempt, ``None`` on success.
    failure_kind: str | None = None
    #: Opt-in schedule hash (``CellSpec(fingerprint_schedule=True)``).
    schedule_hash: str | None = None
    #: :func:`~repro.analyze.race.fingerprint_result` digest of the
    #: cell's result, set on every successful worker attempt.
    result_fingerprint: str | None = None
    #: ``RunResult.kernel_stats``: the Timeout-pool counters.
    kernel_stats: Mapping[str, float] = field(default_factory=dict)
    #: The worker registry's :meth:`~repro.obs.registry.MetricsRegistry.
    #: snapshot`, when telemetry shipping was on.
    metrics: Mapping[str, Mapping[str, object]] | None = None

    @property
    def ok(self) -> bool:
        """Whether this attempt produced a result."""
        return self.failure_kind is None

    @property
    def queue_wait_s(self) -> float:
        """Host seconds between pool submission and worker pickup."""
        return max(0.0, self.start_s - self.submit_s)

    @property
    def span_s(self) -> float:
        """Host seconds the attempt occupied its worker."""
        return max(0.0, self.end_s - self.start_s)

    @property
    def label(self) -> str:
        """Human-readable cell identity (``FLO52 P=8``)."""
        return f"{self.app} P={self.n_processors}"


def percentile(values: Sequence[float], q: float) -> float | None:
    """Nearest-rank *q*-percentile (``0 <= q <= 1``) of *values*."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"percentile must be in [0, 1], got {q}")
    if not values:
        return None
    ranked = sorted(values)
    index = min(len(ranked) - 1, max(0, math.ceil(q * len(ranked)) - 1))
    return ranked[index]


class ProgressReporter:
    """Single-line live progress for a running campaign.

    Renders ``[done/total]`` with sustained throughput, rolling p50/p95
    cell wall, pool utilization, cache hit count and an ETA.  Writes
    in-place (carriage return) to *stream* only when enabled; by
    default enabled exactly when the stream is a TTY, so piped and CI
    output stay clean.  :meth:`line` exposes the rendered text for
    tests and non-TTY callers.
    """

    def __init__(
        self,
        total: int,
        jobs: int = 1,
        stream: IO[str] | None = None,
        enabled: bool | None = None,
    ) -> None:
        self.total = total
        self.jobs = max(1, jobs)
        self.stream: IO[str] = stream if stream is not None else sys.stderr
        if enabled is None:
            isatty = getattr(self.stream, "isatty", None)
            enabled = bool(isatty()) if callable(isatty) else False
        self.enabled = enabled
        self.done = 0
        self.failed = 0
        self.cache_hits = 0
        self.busy_s = 0.0
        self._recent: deque[float] = deque(maxlen=_ROLLING_WINDOW)
        self._begin = host_clock_s()
        self._wrote = False

    def note_cell(self, wall_s: float, ok: bool, cache_hit: bool = False) -> None:
        """Record one finished cell attempt and repaint the line."""
        if ok:
            self.done += 1
        else:
            self.failed += 1
        if cache_hit:
            self.cache_hits += 1
        else:
            self.busy_s += wall_s
            if ok:
                self._recent.append(wall_s)
        self.emit()

    @property
    def elapsed_s(self) -> float:
        """Host seconds since the reporter was created."""
        return max(1e-9, host_clock_s() - self._begin)

    def line(self) -> str:
        """The current progress line (always computable, TTY or not)."""
        elapsed = self.elapsed_s
        rate = self.done / elapsed
        parts = [f"[{self.done}/{self.total}]", f"{rate:.2f} cells/s"]
        recent = list(self._recent)
        p50 = percentile(recent, 0.50)
        p95 = percentile(recent, 0.95)
        if p50 is not None and p95 is not None:
            parts.append(f"p50 {p50:.2f}s p95 {p95:.2f}s")
        parts.append(f"util {min(1.0, self.busy_s / (self.jobs * elapsed)):.0%}")
        if self.cache_hits:
            parts.append(f"cache {self.cache_hits}/{self.done}")
        if self.failed:
            parts.append(f"failed {self.failed}")
        remaining = self.total - self.done
        if 0 < remaining and rate > 0:
            parts.append(f"eta {remaining / rate:.0f}s")
        return " | ".join(parts)

    def emit(self) -> None:
        """Repaint the line in place (no-op when disabled)."""
        if not self.enabled:
            return
        self.stream.write("\r\x1b[2K" + self.line())
        self.stream.flush()
        self._wrote = True

    def close(self) -> None:
        """Finish the line with a newline (no-op if never painted)."""
        if self.enabled and self._wrote:
            self.stream.write("\n")
            self.stream.flush()


class CampaignTelemetry:
    """Coordinator-side telemetry for one pooled campaign.

    Hand an instance to :func:`repro.parallel.execute_cells` /
    :func:`~repro.core.resilience.resilient_sweep` (or the ``--log`` /
    ``--progress`` CLI flags).  It owns the campaign registry, the JSONL
    event log, the collected :class:`CellSpan` list and the progress
    reporter; after :meth:`end` it can render the report and the
    Perfetto trace.
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        log_path: str | Path | None = None,
        progress: bool | None = None,
        stream: IO[str] | None = None,
        label: str = "campaign",
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.log_path = Path(log_path) if log_path is not None else None
        self.label = label
        self._progress_flag = progress
        self._stream = stream
        self.spans: list[CellSpan] = []
        self.events: list[dict] = []
        self.header: dict = {}
        self.jobs = 1
        self.reporter: ProgressReporter | None = None
        self._log: IO[str] | None = None
        self._begun = False
        self._ended = False
        self._t0 = 0.0

    # -- lifecycle (called by the executor) ---------------------------------

    def begin(self, specs: "Sequence[CellSpec]", jobs: int) -> None:
        """Open the campaign: write the tagged log header, start progress."""
        if self._begun:
            raise RuntimeError("CampaignTelemetry.begin() called twice")
        from repro.parallel.cache import code_fingerprint

        self._begun = True
        self.jobs = jobs
        self._t0 = host_clock_s()
        seeds = {spec.seed for spec in specs}
        self.header = {
            "schema": CAMPAIGN_LOG_SCHEMA,
            "label": self.label,
            "code_fingerprint": code_fingerprint(),
            "seed": seeds.pop() if len(seeds) == 1 else None,
            "jobs": jobs,
            "n_cells": len(specs),
            "apps": sorted({spec.app for spec in specs}),
            "configs": sorted({spec.n_processors for spec in specs}),
            "t0": self._t0,
        }
        if self.log_path is not None:
            self.log_path.parent.mkdir(parents=True, exist_ok=True)
            self._log = open(self.log_path, "w", encoding="utf-8")
            self._write(self.header)
        self.reporter = ProgressReporter(
            total=len(specs),
            jobs=jobs,
            stream=self._stream,
            enabled=self._progress_flag,
        )

    def on_submit(self, spec: "CellSpec", attempt: int) -> float:
        """Log a cell handed to the pool; returns the submit timestamp."""
        now = host_clock_s()
        self._event(
            {
                "ev": "submit",
                "t": now,
                "app": spec.app,
                "p": spec.n_processors,
                "attempt": attempt,
            }
        )
        return now

    def on_cache_hit(self, spec: "CellSpec", result: "RunResult") -> None:
        """Log a cell served from the result cache (no simulation)."""
        now = host_clock_s()
        span = CellSpan(
            app=spec.app,
            n_processors=spec.n_processors,
            seed=spec.seed,
            attempt=1,
            worker_pid=os.getpid(),
            submit_s=now,
            start_s=now,
            end_s=now,
            run_wall_s=result.wall_s,
            cache_hit=True,
            schedule_hash=result.schedule_hash,
            kernel_stats=dict(result.kernel_stats),
        )
        self.spans.append(span)
        self._event(
            {
                "ev": "cache_hit",
                "t": now,
                "app": spec.app,
                "p": spec.n_processors,
                "schedule_hash": result.schedule_hash,
            }
        )
        self._aggregate(span)
        if self.reporter is not None:
            self.reporter.note_cell(0.0, ok=True, cache_hit=True)

    def on_span(self, span: CellSpan, will_retry: bool = False) -> None:
        """Record a worker-side attempt (successful or failed)."""
        self.spans.append(span)
        self._event(
            {
                "ev": "start",
                "t": span.start_s,
                "app": span.app,
                "p": span.n_processors,
                "attempt": span.attempt,
                "pid": span.worker_pid,
            }
        )
        self._event(
            {
                "ev": "finish",
                "t": span.end_s,
                "app": span.app,
                "p": span.n_processors,
                "attempt": span.attempt,
                "pid": span.worker_pid,
                "ok": span.ok,
                "wall_s": span.span_s,
                "run_wall_s": span.run_wall_s,
                "queue_wait_s": span.queue_wait_s,
                "error": span.failure_kind,
                "schedule_hash": span.schedule_hash,
                "result_fingerprint": span.result_fingerprint,
            }
        )
        if will_retry:
            self._event(
                {
                    "ev": "retry",
                    "t": host_clock_s(),
                    "app": span.app,
                    "p": span.n_processors,
                    "attempt": span.attempt,
                    "error": span.failure_kind,
                }
            )
        self._aggregate(span)
        if self.reporter is not None and not will_retry:
            self.reporter.note_cell(span.span_s, ok=span.ok)

    def on_recovery(self, kind: str, **fields: object) -> None:
        """Log one recovery event (respawn, straggler, checkpoint, ...).

        The durable execution layer (:mod:`repro.parallel.durable`)
        narrates its self-healing through this seam: each event lands
        in the JSONL log as ``{"ev": "recovery", "kind": kind, ...}``
        and bumps the ``campaign.recovery.<kind>`` counter, so SLO
        reports and recovery reports read from one surface.
        """
        self._event({"ev": "recovery", "kind": kind, "t": host_clock_s(), **fields})
        self.registry.counter(f"campaign.recovery.{kind}").inc()

    def end(self) -> None:
        """Close the campaign: summary gauges, end event, log + TTY.

        Idempotent: the executor finalizes telemetry on *every* exit
        path (including exceptional ones), so a second call -- e.g.
        after a checkpoint already closed the campaign -- is a no-op.
        """
        if self._ended:
            return
        self._ended = True
        wall = max(1e-9, host_clock_s() - self._t0)
        reg = self.registry
        completed = sum(1 for s in self.spans if s.ok)
        failed_attempts = sum(1 for s in self.spans if not s.ok)
        cache_hits = sum(1 for s in self.spans if s.cache_hit)
        busy = sum(s.span_s for s in self.spans if not s.cache_hit)
        reg.gauge("campaign.wall_s").set(wall)
        reg.gauge("campaign.throughput_cells_per_s").set(completed / wall)
        reg.gauge("campaign.pool.utilization").set(
            min(1.0, busy / (self.jobs * wall))
        )
        self._event(
            {
                "ev": "end",
                "t": host_clock_s(),
                "completed": completed,
                "failed_attempts": failed_attempts,
                "cache_hits": cache_hits,
                "wall_s": wall,
            }
        )
        if self._log is not None:
            self._log.close()
            self._log = None
        if self.reporter is not None:
            self.reporter.close()

    # -- derived views -------------------------------------------------------

    def report(self) -> dict:
        """The :func:`build_campaign_report` of this campaign's log."""
        return build_campaign_report(self.header, self.events)

    def chrome_trace(self) -> dict:
        """The campaign-wide Perfetto trace of the collected spans."""
        return campaign_chrome_trace(self.spans, t0=self.header.get("t0"))

    # -- internals -----------------------------------------------------------

    def _write(self, payload: dict) -> None:
        if self._log is not None:
            self._log.write(json.dumps(payload, sort_keys=True) + "\n")
            self._log.flush()

    def _event(self, payload: dict) -> None:
        self.events.append(payload)
        self._write(payload)

    def _aggregate(self, span: CellSpan) -> None:
        reg = self.registry
        reg.counter("campaign.cells.attempts").inc()
        if span.ok:
            reg.counter("campaign.cells.completed").inc()
        else:
            reg.counter("campaign.cells.failed_attempts").inc()
        if span.cache_hit:
            reg.counter("campaign.cells.cache_hits").inc()
        else:
            reg.histogram("campaign.cell_wall_s", _SECONDS_BOUNDARIES).observe(
                span.span_s
            )
            reg.histogram("campaign.queue_wait_s", _SECONDS_BOUNDARIES).observe(
                span.queue_wait_s
            )
            reg.histogram("campaign.run_wall_s", _SECONDS_BOUNDARIES).observe(
                span.run_wall_s
            )
        if span.metrics is not None:
            reg.merge_snapshot(span.metrics, prefix="campaign")


# -- campaign log ------------------------------------------------------------


def load_campaign_log(path: str | Path) -> tuple[dict, list[dict]]:
    """Read a campaign-log JSONL file into ``(header, events)``.

    Validates the header's schema marker; blank lines are skipped.
    """
    header: dict | None = None
    events: list[dict] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            payload = json.loads(line)
            if header is None:
                if payload.get("schema") != CAMPAIGN_LOG_SCHEMA:
                    raise ValueError(
                        f"not a campaign log: expected schema "
                        f"{CAMPAIGN_LOG_SCHEMA!r}, got {payload.get('schema')!r}"
                    )
                header = payload
            else:
                events.append(payload)
    if header is None:
        raise ValueError(f"empty campaign log: {path}")
    return header, events


def build_campaign_report(header: dict, events: list[dict]) -> dict:
    """Distil a campaign log into the SLO report.

    Sustained throughput, p50/p95/p99 cell latency (host wall seconds of
    successful simulated cells), queue-wait percentiles, pool
    utilization, and the retry/failure/cache breakdown.  Carries the
    log header's ``code_fingerprint`` and ``seed`` so the report can be
    matched to the exact code state that produced it.
    """
    jobs = int(header.get("jobs", 1) or 1)
    times = [float(e["t"]) for e in events if "t" in e]
    t0 = float(header.get("t0", min(times) if times else 0.0))
    t_end = max(times) if times else t0
    wall_s = max(1e-9, t_end - t0)

    finishes = [e for e in events if e.get("ev") == "finish"]
    ok = [e for e in finishes if e.get("ok")]
    failed_attempts = [e for e in finishes if not e.get("ok")]
    cache_hits = sum(1 for e in events if e.get("ev") == "cache_hit")
    retries = sum(1 for e in events if e.get("ev") == "retry")
    completed = len(ok) + cache_hits

    succeeded = {(e["app"], e["p"]) for e in ok}
    succeeded |= {
        (e["app"], e["p"]) for e in events if e.get("ev") == "cache_hit"
    }
    failed_cells = sorted(
        {(e["app"], e["p"]) for e in failed_attempts} - succeeded
    )

    walls = [float(e["wall_s"]) for e in ok]
    waits = [float(e.get("queue_wait_s", 0.0)) for e in ok]
    busy_s = sum(float(e["wall_s"]) for e in finishes)

    per_worker: dict[str, dict] = {}
    for e in finishes:
        row = per_worker.setdefault(
            str(e.get("pid", "?")), {"attempts": 0, "busy_s": 0.0}
        )
        row["attempts"] += 1
        row["busy_s"] = round(row["busy_s"] + float(e["wall_s"]), 6)

    def _pct(values: list[float], q: float) -> float | None:
        value = percentile(values, q)
        return round(value, 6) if value is not None else None

    recovery: dict | None = None
    recovery_events = [e for e in events if e.get("ev") == "recovery"]
    if recovery_events:
        by_kind = _TallyCounter(str(e.get("kind")) for e in recovery_events)
        recovery = {
            "events": len(recovery_events),
            "by_kind": dict(sorted(by_kind.items())),
        }

    return {
        "schema": CAMPAIGN_REPORT_SCHEMA,
        "label": header.get("label"),
        "code_fingerprint": header.get("code_fingerprint"),
        "seed": header.get("seed"),
        "jobs": jobs,
        "cells": {
            "total": header.get("n_cells", completed + len(failed_cells)),
            "completed": completed,
            "simulated": len(ok),
            "cache_hits": cache_hits,
            "failed": len(failed_cells),
            "failed_cells": [list(cell) for cell in failed_cells],
            "retries": retries,
        },
        "wall_s": round(wall_s, 6),
        "throughput": {
            "sustained_cells_per_s": round(completed / wall_s, 6),
            "simulated_cells_per_s": round(len(ok) / wall_s, 6),
        },
        "latency_s": {
            "p50": _pct(walls, 0.50),
            "p95": _pct(walls, 0.95),
            "p99": _pct(walls, 0.99),
            "mean": round(sum(walls) / len(walls), 6) if walls else None,
            "max": round(max(walls), 6) if walls else None,
        },
        "queue_wait_s": {
            "p50": _pct(waits, 0.50),
            "p95": _pct(waits, 0.95),
        },
        "pool": {
            "utilization": round(min(1.0, busy_s / (jobs * wall_s)), 6),
            "busy_s": round(busy_s, 6),
            "workers": dict(sorted(per_worker.items())),
        },
        "cache": {
            "hits": cache_hits,
            "hit_rate": round(cache_hits / completed, 6) if completed else 0.0,
        },
        "failures": dict(
            sorted(
                _TallyCounter(
                    str(e.get("error")) for e in failed_attempts
                ).items()
            )
        ),
        "recovery": recovery,
    }


def render_campaign_report(report: dict) -> str:
    """Human-readable summary of a :func:`build_campaign_report` dict."""
    cells = report["cells"]
    latency = report["latency_s"]
    pool = report["pool"]

    def _s(value: float | None) -> str:
        return f"{value:.3f}s" if value is not None else "-"

    lines = [
        f"campaign {report.get('label') or '?'}: "
        f"{cells['completed']}/{cells['total']} cells in {report['wall_s']:.2f}s "
        f"({report['throughput']['sustained_cells_per_s']:.2f} cells/s sustained, "
        f"jobs={report['jobs']})",
        f"  latency   p50 {_s(latency['p50'])}  p95 {_s(latency['p95'])}  "
        f"p99 {_s(latency['p99'])}  mean {_s(latency['mean'])}",
        f"  pool      utilization {pool['utilization']:.0%}  "
        f"busy {pool['busy_s']:.2f}s across {len(pool['workers'])} worker(s)",
        f"  cache     {report['cache']['hits']} hits "
        f"({report['cache']['hit_rate']:.0%} of completed)",
        f"  failures  {cells['failed']} cell(s), {cells['retries']} retr"
        f"{'y' if cells['retries'] == 1 else 'ies'}",
    ]
    for kind, count in report.get("failures", {}).items():
        lines.append(f"    {kind}: {count} attempt(s)")
    recovery = report.get("recovery")
    if recovery:
        pieces = ", ".join(
            f"{kind} x{count}" for kind, count in recovery["by_kind"].items()
        )
        lines.append(f"  recovery  {recovery['events']} event(s): {pieces}")
    fingerprint = report.get("code_fingerprint")
    seed = report.get("seed")
    lines.append(f"  provenance code {fingerprint or '?'}  seed {seed}")
    return "\n".join(lines)


def save_campaign_report(report: dict, path: str | Path) -> None:
    """Write a campaign report as indented JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=False)
        fh.write("\n")


# -- Perfetto export ---------------------------------------------------------


def spans_from_log(events: list[dict]) -> list[CellSpan]:
    """Reconstruct :class:`CellSpan` views from a loaded campaign log.

    Only the fields the trace exporter needs are recovered; worker
    metric snapshots are not logged and come back as ``None``.
    """
    spans: list[CellSpan] = []
    for e in events:
        if e.get("ev") == "finish":
            end = float(e["t"])
            wall = float(e.get("wall_s", 0.0))
            wait = float(e.get("queue_wait_s", 0.0))
            spans.append(
                CellSpan(
                    app=str(e["app"]),
                    n_processors=int(e["p"]),
                    seed=0,
                    attempt=int(e.get("attempt", 1)),
                    worker_pid=int(e.get("pid", 0)),
                    submit_s=end - wall - wait,
                    start_s=end - wall,
                    end_s=end,
                    run_wall_s=float(e.get("run_wall_s", wall)),
                    failure_kind=(
                        str(e["error"]) if e.get("error") is not None else None
                    ),
                    schedule_hash=e.get("schedule_hash"),
                    result_fingerprint=e.get("result_fingerprint"),
                )
            )
        elif e.get("ev") == "cache_hit":
            now = float(e["t"])
            spans.append(
                CellSpan(
                    app=str(e["app"]),
                    n_processors=int(e["p"]),
                    seed=0,
                    attempt=1,
                    worker_pid=int(e.get("pid", 0)),
                    submit_s=now,
                    start_s=now,
                    end_s=now,
                    run_wall_s=0.0,
                    cache_hit=True,
                    schedule_hash=e.get("schedule_hash"),
                )
            )
    return spans


def campaign_chrome_trace(
    spans: Sequence[CellSpan], t0: float | None = None
) -> dict:
    """Chrome trace-event JSON of a campaign: one track per worker PID.

    Cells appear as ``"X"`` (complete) slices on their worker's track;
    cache hits and failed attempts appear as ``"i"`` (instant) events.
    Timestamps are microseconds relative to the campaign start (*t0*,
    defaulting to the earliest span).  Load in ``ui.perfetto.dev`` --
    the same exporter family as
    :func:`repro.obs.exporters.chrome_trace`.
    """
    if t0 is None:
        t0 = min((s.submit_s for s in spans), default=0.0)
    events: list[dict] = []
    for pid in sorted({s.worker_pid for s in spans}):
        events.append(
            {
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "ts": 0,
                "name": "process_name",
                "args": {"name": f"worker {pid}"},
            }
        )
    for span in spans:
        ts = (span.start_s - t0) * 1e6
        if span.cache_hit:
            events.append(
                {
                    "ph": "i",
                    "pid": span.worker_pid,
                    "tid": 0,
                    "ts": ts,
                    "s": "p",
                    "name": f"cache-hit {span.label}",
                    "cat": "cache",
                }
            )
            continue
        events.append(
            {
                "ph": "X",
                "pid": span.worker_pid,
                "tid": 0,
                "ts": ts,
                "dur": span.span_s * 1e6,
                "name": span.label,
                "cat": "cell",
                "args": {
                    "attempt": span.attempt,
                    "ok": span.ok,
                    "run_wall_s": span.run_wall_s,
                    "queue_wait_s": span.queue_wait_s,
                    "schedule_hash": span.schedule_hash,
                    "result_fingerprint": span.result_fingerprint,
                },
            }
        )
        if not span.ok:
            events.append(
                {
                    "ph": "i",
                    "pid": span.worker_pid,
                    "tid": 0,
                    "ts": (span.end_s - t0) * 1e6,
                    "s": "p",
                    "name": f"failed {span.label}: {span.failure_kind}",
                    "cat": "retry",
                }
            )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"spans": len(spans)},
    }


def save_campaign_trace(
    spans: Sequence[CellSpan], path: str | Path, t0: float | None = None
) -> None:
    """Write :func:`campaign_chrome_trace` JSON to *path*."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(campaign_chrome_trace(spans, t0=t0), fh)
        fh.write("\n")
