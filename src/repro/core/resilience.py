"""Resilient sweeps: isolate per-cell failures, report, keep going.

A paper-scale sweep is many independent ``(app, P)`` cells; one
misbehaving cell (a runaway simulation, a suspected deadlock, a fault
campaign that trips a guard) should cost that cell, not the sweep.
:func:`resilient_sweep` runs the grid through the one sweep executor
(:func:`repro.parallel.executor.execute_cells`), which isolates every
cell and retries it with one bounded same-seed retry;
:func:`resume_sweep` finishes a journaled sweep that was interrupted.
Failed cells come back as structured :class:`CellFailure` records, and
the partial tables still render with them marked
(:func:`render_partial_table`) plus a JSON failure report
(:func:`failure_report`).
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.reference import CONFIGS
from repro.core.report import render_table
from repro.core.record import DEFAULT_SCALE, RunResult

__all__ = [
    "CellFailure",
    "SweepOutcome",
    "failure_report",
    "render_partial_table",
    "resilient_sweep",
    "resume_sweep",
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
    #: ``cedar-repro/recovery-report/v1`` dict when the sweep was
    #: journaled (see :mod:`repro.parallel.durable`); ``None`` otherwise.
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

    Builds one :class:`~repro.parallel.executor.CellSpec` per cell and
    runs the grid through :func:`repro.parallel.executor.execute_cells`,
    which picks its route from the inputs: in-process for ``jobs=1``, a
    pool of ``jobs`` workers otherwise (or whenever a host-chaos plan or
    cell deadline needs a killable worker).  Each cell gets ``1 +
    retries`` attempts under the *same* seed (the model is
    deterministic, so a retry only helps against host-side trouble --
    but it distinguishes "deterministic failure" from "flaky harness"
    in the report).  *campaign* runs every cell under a fault campaign;
    *run_kwargs* may carry ``max_events``, ``max_sim_time`` and
    ``statfx_interval_ns``; *cache_dir* serves and stores results in the
    content-addressed cache; a
    :class:`~repro.obs.campaign.CampaignTelemetry` logs the sweep as it
    runs.

    A *checkpoint* journal path makes the sweep crash-safe: a new
    journal is created (with the cache beside it unless *cache_dir* is
    given), every cell is journaled before dispatch, and
    SIGINT/SIGTERM checkpoint the campaign; an existing journal for the
    same grid resumes, serving its completed cells from the cache.  The
    outcome then carries the recovery report.  *chaos* (a
    :class:`~repro.faults.host.HostChaosPlan`) and *durable_policy* (a
    :class:`~repro.parallel.durable.DurablePolicy`) configure the
    host-fault harness and the health monitor (``docs/resilience.md``).
    """
    unknown = set(run_kwargs) - {"max_events", "max_sim_time", "statfx_interval_ns"}
    if unknown:
        raise ValueError(f"unsupported sweep options: {sorted(unknown)}")
    from repro.parallel.executor import CellSpec

    apps = list(apps)
    configs = list(configs)
    specs = [
        CellSpec(app, n_proc, scale=scale, seed=seed, campaign=campaign, **run_kwargs)
        for app in apps
        for n_proc in configs
    ]
    journal = None
    resumed_keys: frozenset[str] = frozenset()
    if checkpoint is not None:
        from repro.parallel.journal import CampaignJournal, JournalError, load_journal

        checkpoint = Path(checkpoint)
        if cache_dir is None:
            cache_dir = checkpoint.with_name(checkpoint.name + ".cache")
        if checkpoint.exists():
            state = load_journal(checkpoint)
            state.check_fingerprint()
            journal_keys = {spec.key() for spec in state.specs}
            grid_keys = {spec.key() for spec in specs}
            if journal_keys != grid_keys:
                raise JournalError(
                    f"journal {checkpoint} covers a different cell set than this "
                    f"sweep ({len(journal_keys)} vs {len(grid_keys)} cells); "
                    f"resume it with `cedar-repro resume` or pick a new "
                    f"checkpoint path"
                )
            resumed_keys = frozenset(state.done)
            journal = CampaignJournal.append_to(checkpoint)
        else:
            journal = CampaignJournal.create(
                checkpoint,
                specs,
                seed=seed,
                cache_dir=cache_dir,
                sweep={
                    "apps": apps,
                    "configs": configs,
                    "scale": scale,
                    "seed": seed,
                    "campaign": campaign.to_dict() if campaign is not None else None,
                },
            )
    return _run_sweep(
        specs,
        scale,
        seed,
        journal=journal,
        resumed_keys=resumed_keys,
        cache_dir=cache_dir,
        jobs=jobs,
        retries=retries,
        metrics=metrics,
        telemetry=telemetry,
        chaos=chaos,
        policy=durable_policy,
    )


def resume_sweep(
    journal_path: str | Path,
    jobs: int = 1,
    cache_dir: str | Path | None = None,
    retries: int = 3,
    policy=None,
    metrics=None,
    telemetry=None,
) -> SweepOutcome:
    """Resume an interrupted campaign from its write-ahead journal.

    Loads the journal, refuses a code-fingerprint mismatch
    (:class:`~repro.parallel.journal.JournalMismatchError`), serves
    completed cells from the recorded result cache, and re-runs only
    the incomplete ones.  The final outcome -- and its tables -- are
    byte-identical to an uninterrupted run of the same campaign.
    """
    from repro.parallel.journal import CampaignJournal, JournalError, load_journal

    state = load_journal(journal_path)
    state.check_fingerprint()
    if not state.specs:
        raise JournalError(f"journal {journal_path} carries no cells")
    cache_dir = cache_dir if cache_dir is not None else state.cache_dir
    if cache_dir is None:
        raise JournalError(
            f"journal {journal_path} records no cache directory; pass cache_dir"
        )
    sweep_meta = state.header.get("sweep") or {}
    scale = float(sweep_meta.get("scale", state.specs[0].scale))
    seed = state.header.get("seed")
    return _run_sweep(
        state.specs,
        scale,
        int(seed if seed is not None else state.specs[0].seed),
        journal=CampaignJournal.append_to(journal_path),
        resumed_keys=frozenset(state.done),
        label=state.label,
        cache_dir=cache_dir,
        jobs=jobs,
        retries=retries,
        metrics=metrics,
        telemetry=telemetry,
        policy=policy,
    )


def _run_sweep(
    specs: list,
    scale: float,
    seed: int,
    journal=None,
    resumed_keys: frozenset[str] = frozenset(),
    label: str = "campaign",
    cache_dir: str | Path | None = None,
    **execute,
) -> SweepOutcome:
    """Run *specs* through the executor and assemble the outcome."""
    from repro.obs.hostclock import WallTimer
    from repro.parallel import executor
    from repro.parallel.cache import ResultCache
    from repro.parallel.durable import RecoveryLedger

    cache = ResultCache(cache_dir) if cache_dir is not None else None
    ledger = RecoveryLedger()
    try:
        with WallTimer() as wall:
            # Looked up on the module at call time, so a wrapper installed
            # there (a tracer, a test double) sees every call.
            results, failures = executor.execute_cells(
                specs,
                cache=cache,
                journal=journal,
                ledger=ledger,
                resumed_keys=resumed_keys,
                **execute,
            )
    finally:
        if journal is not None:
            journal.close()
    outcome = SweepOutcome(scale=scale, seed=seed, failures=failures)
    if journal is not None:
        outcome.recovery = ledger.report(
            label=label,
            cells_total=len(specs),
            cells_completed=len(results),
            wall_s=wall.elapsed_s,
            cache=cache,
        )
    for spec in specs:
        by_config = outcome.results.setdefault(spec.app, {})
        if spec in results:
            by_config[spec.n_processors] = results[spec]
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
