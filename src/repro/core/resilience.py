"""Resilient sweeps: isolate per-cell failures, report, keep going.

A paper-scale sweep is many independent ``(app, P)`` cells; one
misbehaving cell (a runaway simulation, a suspected deadlock, a fault
campaign that trips a guard) should cost that cell, not the sweep.
:func:`resilient_sweep` runs every cell under a try/except with one
bounded same-seed retry, collects structured :class:`CellFailure`
records, and still renders partial tables with the failed cells marked
(:func:`render_partial_table`) plus a JSON failure report
(:func:`failure_report`).
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.reference import CONFIGS
from repro.core.report import render_table
from repro.core.runner import DEFAULT_SCALE, RunResult

__all__ = [
    "CellFailure",
    "SweepOutcome",
    "failure_report",
    "render_partial_table",
    "resilient_sweep",
    "save_failure_report",
]


@dataclass(frozen=True)
class CellFailure:
    """One sweep cell that failed all its attempts."""

    app: str
    n_processors: int
    attempts: int
    error_type: str
    message: str


@dataclass
class SweepOutcome:
    """Everything a resilient sweep produced, complete or not."""

    scale: float
    seed: int
    results: dict[str, dict[int, RunResult]] = field(default_factory=dict)
    failures: list[CellFailure] = field(default_factory=list)
    #: ``cedar-repro/recovery-report/v1`` dict when the sweep ran through
    #: the durable layer (:mod:`repro.parallel.durable`); ``None``
    #: otherwise.
    recovery: dict | None = None

    @property
    def ok(self) -> bool:
        """Whether every cell completed."""
        return not self.failures

    def failed_cells(self) -> set[tuple[str, int]]:
        """The ``(app, P)`` cells that failed."""
        return {(f.app, f.n_processors) for f in self.failures}


def resilient_sweep(
    apps: Iterable[str],
    configs: Iterable[int] = CONFIGS,
    scale: float = DEFAULT_SCALE,
    seed: int = 1994,
    retries: int = 1,
    run_cell: Callable[[str, int], RunResult] | None = None,
    jobs: int = 1,
    cache_dir: str | Path | None = None,
    campaign=None,
    metrics=None,
    telemetry=None,
    checkpoint: str | Path | None = None,
    chaos=None,
    durable_policy=None,
    **run_kwargs,
) -> SweepOutcome:
    """Sweep ``apps x configs``, isolating each cell's failures.

    Each cell gets ``1 + retries`` attempts under the *same* seed (the
    model is deterministic, so a retry only helps against host-side
    trouble -- but it distinguishes "deterministic failure" from "flaky
    harness" in the report).  *run_cell* overrides how one cell is
    executed (the seam the fault-campaign CLI and the tests use); by
    default each cell is a :class:`~repro.parallel.executor.CellSpec`
    run by :func:`repro.parallel.executor.run_cell` -- the same function
    every pool worker runs -- so serial results are detached snapshots
    too.  *run_kwargs* may carry ``max_events``, ``max_sim_time`` and
    ``statfx_interval_ns`` on every path.

    With ``jobs > 1``, a *cache_dir*, or a *campaign* the sweep is
    delegated to :func:`repro.parallel.parallel_sweep`: cells fan out
    across worker processes and/or are served from the content-addressed
    result cache, with the same per-cell isolation and retry semantics.
    The *run_cell* seam is serial-only -- closures don't cross process
    boundaries.  Passing a :class:`~repro.obs.campaign.CampaignTelemetry`
    as *telemetry* also routes through the parallel path, so resilient
    campaign sweeps log through the same event-log/progress/report seam
    as pooled ones.

    A *checkpoint* journal path routes through the crash-safe layer
    (:mod:`repro.parallel.durable`): cells are journaled before
    dispatch, an existing journal resumes, and the outcome carries a
    recovery report; *chaos* (a
    :class:`~repro.faults.host.HostChaosPlan`) and *durable_policy*
    (a :class:`~repro.parallel.durable.DurablePolicy`) configure the
    host-fault harness and health monitor (``docs/resilience.md``).
    """
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    unknown = set(run_kwargs) - {"max_events", "max_sim_time", "statfx_interval_ns"}
    if unknown:
        raise ValueError(f"unsupported sweep options: {sorted(unknown)}")

    if (
        jobs != 1
        or cache_dir is not None
        or campaign is not None
        or telemetry is not None
        or checkpoint is not None
        or chaos is not None
        or durable_policy is not None
    ):
        if run_cell is not None:
            raise ValueError(
                "run_cell is a serial-only seam; use CellSpec/execute_cells "
                "for custom parallel cells"
            )
        from repro.parallel import parallel_sweep

        return parallel_sweep(
            apps,
            configs=configs,
            scale=scale,
            seed=seed,
            jobs=jobs,
            cache_dir=cache_dir,
            campaign=campaign,
            retries=retries,
            metrics=metrics,
            telemetry=telemetry,
            checkpoint=checkpoint,
            chaos=chaos,
            durable_policy=durable_policy,
            **run_kwargs,
        )

    if run_cell is None:
        from repro.parallel import executor

        def run_cell(app: str, n_proc: int) -> RunResult:
            spec = executor.CellSpec(app, n_proc, scale=scale, seed=seed, **run_kwargs)
            return executor.run_cell(spec)

    outcome = SweepOutcome(scale=scale, seed=seed)
    for app in apps:
        by_config: dict[int, RunResult] = {}
        for n_proc in configs:
            attempts = 0
            while True:
                attempts += 1
                try:
                    by_config[n_proc] = run_cell(app, n_proc)
                    break
                except Exception as exc:  # noqa: BLE001 - isolation point
                    if attempts <= retries:
                        continue
                    outcome.failures.append(
                        CellFailure(
                            app=app,
                            n_processors=n_proc,
                            attempts=attempts,
                            error_type=type(exc).__name__,
                            message=str(exc),
                        )
                    )
                    break
        outcome.results[app] = by_config
    return outcome


def render_partial_table(outcome: SweepOutcome) -> str:
    """CT/speedup table with failed cells marked ``FAILED(<ErrorType>)``."""
    failures = {
        (f.app, f.n_processors): f.error_type for f in outcome.failures
    }
    rows: list[list[object]] = []
    for app, by_config in outcome.results.items():
        baseline = by_config.get(1)
        procs = sorted(
            set(by_config) | {p for a, p in failures if a == app}
        )
        for n_proc in procs:
            result = by_config.get(n_proc)
            if result is None:
                rows.append(
                    [app, n_proc, f"FAILED({failures[(app, n_proc)]})", None, "failed"]
                )
                continue
            speedup = (
                baseline.ct_seconds / result.ct_seconds
                if baseline is not None and result.ct_seconds > 0
                else None
            )
            rows.append([app, n_proc, result.ct_seconds, speedup, "ok"])
    headers = ["app", "procs", "CT (s)", "speedup", "status"]
    title = "Sweep results"
    if outcome.failures:
        title += f" (partial: {len(outcome.failures)} cell(s) failed)"
    return render_table(headers, rows, title=title)


def failure_report(outcome: SweepOutcome) -> dict:
    """JSON-serialisable report of a sweep's failures.

    The header carries the code fingerprint beside the seed, so a
    report can be matched to the exact code state that produced it
    (the same provenance tagging the campaign log uses).
    """
    from repro.parallel.cache import code_fingerprint

    cells_ok = sum(len(by_config) for by_config in outcome.results.values())
    return {
        "schema": "cedar-repro/failure-report/v1",
        "code_fingerprint": code_fingerprint(),
        "scale": outcome.scale,
        "seed": outcome.seed,
        "cells_ok": cells_ok,
        "cells_failed": len(outcome.failures),
        "failures": [
            {
                "app": f.app,
                "n_processors": f.n_processors,
                "attempts": f.attempts,
                "error_type": f.error_type,
                "message": f.message,
            }
            for f in outcome.failures
        ],
    }


def save_failure_report(outcome: SweepOutcome, path: str | Path) -> None:
    """Write :func:`failure_report` as pretty-printed JSON."""
    Path(path).write_text(json.dumps(failure_report(outcome), indent=2) + "\n")
