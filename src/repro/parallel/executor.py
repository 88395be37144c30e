"""Parallel, cached execution of sweep cells.

The unit of work is a :class:`CellSpec` -- one ``(app, P, scale, seed,
campaign)`` point of a sweep, optionally bounded by the runaway
watchdogs.  :func:`run_cell` executes one spec and returns a detached
:func:`~repro.parallel.snapshot.snapshot_result`; :func:`execute_cells`
fans a list of specs out across a ``ProcessPoolExecutor`` (or runs them
inline with ``jobs=1``) behind the content-addressed
:class:`~repro.parallel.cache.ResultCache`; :func:`parallel_sweep`
assembles the outcome into the same
:class:`~repro.core.resilience.SweepOutcome` the serial
:func:`~repro.core.resilience.resilient_sweep` produces, so the partial
tables and failure reports compose unchanged.

Determinism: every cell is an independent, seeded simulation; results
are keyed by cell -- never by completion order -- so a ``jobs=4`` sweep
is byte-identical to the serial one.  Every cell carries its result
fingerprint (:func:`~repro.analyze.race.fingerprint_result`, a digest of
every table the run publishes) on its :class:`~repro.obs.campaign.
CellSpan`, so equivalence is checkable across serial, pooled, cached
and resumed runs.  Cells run sink-free, with every fast path armed;
``CellSpec(fingerprint_schedule=True)`` opts a diagnostic cell into a
:class:`~repro.analyze.sanitize.DeterminismSink` schedule hash on
``result.schedule_hash`` (the sink forces the exact paths).

Resilience: a failing cell costs its future, not the pool.  Exceptions
are caught *inside* the worker and returned as structured
``(error_type, message)`` payloads -- never re-raised through the IPC
pickle machinery -- and every cell gets the same ``1 + retries``
same-seed attempts the serial path gives it.

Telemetry: pass a :class:`~repro.obs.campaign.CampaignTelemetry` and
every attempt comes back wrapped in a
:class:`~repro.obs.campaign.CellSpan` -- queue wait, run wall, failure
kind, result fingerprint, kernel fast-path counters, plus a picklable
snapshot of the worker's whole metric registry -- absorbed in
*completion order* so the event log, progress line and campaign
registry track the pool live.  Results stay keyed by spec, so telemetry
never perturbs the tables.
"""

from __future__ import annotations

import os
from collections.abc import Iterable
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING

from repro.core.resilience import CellFailure, SweepOutcome
from repro.core.runner import DEFAULT_SCALE
from repro.obs.campaign import CellSpan
from repro.obs.hostclock import WallTimer, host_clock_s
from repro.parallel.cache import ResultCache, cell_key
from repro.parallel.snapshot import snapshot_result

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.runner import RunResult
    from repro.faults.spec import CampaignSpec
    from repro.obs.campaign import CampaignTelemetry
    from repro.obs.instrument import Observability
    from repro.obs.registry import MetricsRegistry

__all__ = ["CellSpec", "execute_cells", "parallel_sweep", "run_cell"]

#: Histogram boundaries for per-cell wall time (seconds).
_CELL_WALL_BOUNDARIES = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0)


@dataclass(frozen=True)
class CellSpec:
    """Everything that determines one sweep cell's result.

    The spec is picklable (it crosses the pool boundary) and hashable
    (it keys result dicts); :func:`~repro.parallel.cache.cell_key`
    fingerprints exactly these fields plus the code version.
    """

    app: str
    n_processors: int
    scale: float = DEFAULT_SCALE
    seed: int = 1994
    campaign: "CampaignSpec | None" = None
    statfx_interval_ns: int = 200_000
    max_events: int | None = None
    max_sim_time: int | None = None
    #: Attach a :class:`~repro.analyze.sanitize.DeterminismSink` and
    #: record the schedule hash on the result.  Diagnostic opt-in: any
    #: sink disarms the runtime, xylem and statfx fast paths.
    fingerprint_schedule: bool = False
    #: Canonical scenario JSON (see
    #: :func:`repro.scenario.schema.canonical_scenario_json`) when this
    #: cell runs a compiled scenario instead of a named built-in app;
    #: ``app`` then carries the scenario name for display/grouping only
    #: -- the cache key is derived from the document digest, never the
    #: name.  A plain string keeps the spec hashable and picklable.
    scenario: str | None = None

    def __post_init__(self) -> None:
        if self.scenario is not None and self.campaign is not None:
            raise ValueError(
                "a cell cannot combine a scenario with a fault campaign: "
                "express background interference in the scenario document"
            )

    def key(self) -> str:
        """Content-addressed cache key of this cell."""
        return cell_key(self)


def run_cell(spec: CellSpec, obs: "Observability | None" = None) -> "RunResult":
    """Execute one cell and return its detached snapshot.

    This is both the serial path (``jobs=1``) and the function each
    pool worker runs; the two therefore cannot diverge.  Pass an
    :class:`~repro.obs.instrument.Observability` to keep hold of the
    run's metric registry (the telemetry seam: workers snapshot it into
    their :class:`~repro.obs.campaign.CellSpan`); an opted-in
    schedule-order sink is attached to it either way.  With
    ``obs=None`` and no sink no Observability is materialised at all:
    nobody can see the registry a throwaway instance would have
    collected, and skipping the per-event metrics harvest keeps the
    sink-free cell on the fast path end to end.
    """
    from repro.analyze.sanitize import DeterminismSink, _resolve_builder
    from repro.obs.instrument import Observability

    sink = DeterminismSink(order_capacity=0) if spec.fingerprint_schedule else None
    if obs is None and sink is not None:
        obs = Observability()
    if sink is not None and obs is not None:
        obs.extra_sinks.append(sink)
    if spec.scenario is not None:
        import json

        from repro.scenario.compiler import compile_scenario

        result = compile_scenario(json.loads(spec.scenario)).run(
            spec.n_processors,
            spec.scale,
            spec.seed,
            obs=obs,
            statfx_interval_ns=spec.statfx_interval_ns,
            max_events=spec.max_events,
            max_sim_time=spec.max_sim_time,
        )
    elif spec.campaign is not None:
        from repro.faults.campaign import run_with_campaign

        result = run_with_campaign(
            spec.campaign,
            spec.app,
            spec.n_processors,
            scale=spec.scale,
            seed=spec.seed,
            obs=obs,
            statfx_interval_ns=spec.statfx_interval_ns,
            max_events=spec.max_events,
            max_sim_time=spec.max_sim_time,
        ).result
    else:
        from repro.core.runner import run_application
        from repro.xylem.params import XylemParams

        result = run_application(
            _resolve_builder(spec.app)(),
            spec.n_processors,
            scale=spec.scale,
            os_params=XylemParams(seed=spec.seed),
            statfx_interval_ns=spec.statfx_interval_ns,
            obs=obs,
            max_events=spec.max_events,
            max_sim_time=spec.max_sim_time,
        )
    if sink is not None:
        result.schedule_hash = sink.schedule_hash
    return snapshot_result(result)


def _worker(payload: "tuple[CellSpec, int, float, bool]") -> tuple:
    """Pool entry point: never raises, so futures never carry exceptions.

    *payload* is ``(spec, attempt, submit_s, ship_metrics)``; returns
    ``("ok", snapshot, span)`` or ``("err", error_type, message, span)``
    where *span* is the attempt's :class:`~repro.obs.campaign.CellSpan`
    (carrying the snapshot's result fingerprint, and the worker
    registry's snapshot when *ship_metrics* is set).  Catching inside
    the worker keeps exotic exception types (whose constructors don't
    round-trip through pickle) from wedging the result pipe, and makes
    a failed cell cost exactly its own future.
    """
    from repro.analyze.race import fingerprint_result
    from repro.obs.instrument import Observability

    spec, attempt, submit_s, ship_metrics = payload
    obs = Observability()
    start_s = host_clock_s()
    try:
        result = run_cell(spec, obs=obs)
    except BaseException as exc:  # noqa: BLE001 - isolation boundary
        span = CellSpan(
            app=spec.app,
            n_processors=spec.n_processors,
            seed=spec.seed,
            attempt=attempt,
            worker_pid=os.getpid(),
            submit_s=submit_s,
            start_s=start_s,
            end_s=host_clock_s(),
            run_wall_s=0.0,
            failure_kind=type(exc).__name__,
            metrics=obs.registry.snapshot() if ship_metrics else None,
        )
        return ("err", type(exc).__name__, str(exc), span)
    span = CellSpan(
        app=spec.app,
        n_processors=spec.n_processors,
        seed=spec.seed,
        attempt=attempt,
        worker_pid=os.getpid(),
        submit_s=submit_s,
        start_s=start_s,
        end_s=host_clock_s(),
        run_wall_s=result.wall_s,
        schedule_hash=result.schedule_hash,
        result_fingerprint=fingerprint_result(result).digest,
        kernel_stats=dict(result.kernel_stats),
        metrics=obs.registry.snapshot() if ship_metrics else None,
    )
    return ("ok", result, span)


def _observe(
    metrics: "MetricsRegistry | None", attr: str, name: str, value: int | float
) -> None:
    if metrics is None:
        return
    if attr == "counter":
        metrics.counter(name).inc(value)
    elif attr == "gauge":
        metrics.gauge(name).set(value)
    else:
        metrics.histogram(name, _CELL_WALL_BOUNDARIES).observe(value)


def execute_cells(
    specs: "list[CellSpec]",
    jobs: int = 1,
    cache: ResultCache | None = None,
    retries: int = 1,
    metrics: "MetricsRegistry | None" = None,
    telemetry: "CampaignTelemetry | None" = None,
) -> "tuple[dict[CellSpec, RunResult], list[CellFailure]]":
    """Run every spec, in parallel when ``jobs > 1``, behind the cache.

    Returns ``(results, failures)`` where *results* maps each completed
    spec to its snapshot and *failures* lists the cells that exhausted
    their ``1 + retries`` same-seed attempts, in input order.  Cache
    hits skip simulation entirely; fresh results are written back.

    With *telemetry*, every submit/cache-hit/attempt/retry is logged
    and aggregated as it completes (see :mod:`repro.obs.campaign`).
    When *telemetry* is given without *metrics*, the ``parallel.*`` /
    ``cache.*`` counters land in the telemetry's campaign registry.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if metrics is None and telemetry is not None:
        metrics = telemetry.registry

    results: "dict[CellSpec, RunResult]" = {}
    errors: dict[CellSpec, tuple[str, str]] = {}
    attempts: dict[CellSpec, int] = {}

    if telemetry is not None:
        telemetry.begin(specs, jobs)

    pending: list[CellSpec] = []
    for spec in specs:
        if cache is not None:
            hit = cache.get(spec.key())
            if hit is not None:
                results[spec] = hit
                if telemetry is not None:
                    telemetry.on_cache_hit(spec, hit)
                continue
        pending.append(spec)

    def _absorb(spec: CellSpec, payload: tuple) -> None:
        """Fold one finished attempt in, the moment it completes."""
        if payload[0] == "ok":
            results[spec] = payload[1]
            errors.pop(spec, None)
            if cache is not None:
                cache.put(spec.key(), payload[1])
            will_retry = False
        else:
            errors[spec] = (payload[1], payload[2])
            will_retry = attempts[spec] <= retries
            if will_retry:
                pending.append(spec)
                _observe(metrics, "counter", "parallel.retries", 1)
        if telemetry is not None:
            telemetry.on_span(payload[-1], will_retry=will_retry)

    def _broken_payload(payload_in: "tuple[CellSpec, int, float, bool]", exc: BaseException) -> tuple:
        """Synthesize an err payload for a cell whose worker died.

        A SIGKILLed or crashed worker never returns its span; the
        coordinator stands one up so telemetry and the retry machinery
        see the death like any other failed attempt -- the campaign
        must outlive its workers.
        """
        spec, attempt, submit_s, _ship = payload_in
        now = host_clock_s()
        span = CellSpan(
            app=spec.app,
            n_processors=spec.n_processors,
            seed=spec.seed,
            attempt=attempt,
            worker_pid=0,
            submit_s=submit_s,
            start_s=submit_s,
            end_s=now,
            run_wall_s=0.0,
            failure_kind=type(exc).__name__,
        )
        _observe(metrics, "counter", "parallel.worker_deaths", 1)
        return ("err", type(exc).__name__, str(exc), span)

    try:
        with WallTimer() as pool_wall:
            while pending:
                round_specs = pending
                pending = []
                ship = telemetry is not None
                batch: list[tuple[CellSpec, int, float, bool]] = []
                for spec in round_specs:
                    attempts[spec] = attempts.get(spec, 0) + 1
                    submit_s = (
                        telemetry.on_submit(spec, attempts[spec])
                        if telemetry is not None
                        else host_clock_s()
                    )
                    batch.append((spec, attempts[spec], submit_s, ship))
                if jobs == 1:
                    for payload_in in batch:
                        _absorb(payload_in[0], _worker(payload_in))
                else:
                    # A fresh pool per retry round: a worker a wedged cell
                    # took down never poisons the retries of other cells.
                    # A worker death (BrokenProcessPool) costs the attempts
                    # that were in flight, never the campaign: each affected
                    # cell absorbs a synthetic failure and retries on the
                    # next round's fresh pool.
                    with ProcessPoolExecutor(max_workers=jobs) as pool:
                        futures = {
                            pool.submit(_worker, payload_in): payload_in
                            for payload_in in batch
                        }
                        for future in as_completed(futures):
                            payload_in = futures[future]
                            try:
                                payload = future.result()
                            except Exception as exc:  # noqa: BLE001 - pool breakage
                                payload = _broken_payload(payload_in, exc)
                            _absorb(payload_in[0], payload)
    finally:
        # Finalize on *any* exit path -- an escaping exception must
        # still leave a closed, valid campaign log and flushed metrics
        # (partial logs are still ``cedar-repro/campaign-log/v1``).
        failures = [
            CellFailure(
                app=spec.app,
                n_processors=spec.n_processors,
                attempts=attempts[spec],
                error_type=errors[spec][0],
                message=errors[spec][1],
            )
            for spec in specs
            if spec in errors
        ]
        _observe(metrics, "gauge", "parallel.jobs", jobs)
        _observe(metrics, "counter", "parallel.cells.total", len(specs))
        _observe(metrics, "counter", "parallel.cells.completed", len(results))
        _observe(metrics, "counter", "parallel.cells.failed", len(failures))
        _observe(metrics, "gauge", "parallel.wall_s", pool_wall.elapsed_s)
        cell_wall = 0.0
        for result in results.values():
            _observe(metrics, "histogram", "parallel.cell_wall_s", result.wall_s)
            cell_wall += result.wall_s
        if pool_wall.elapsed_s > 0 and jobs > 1:
            _observe(
                metrics,
                "gauge",
                "parallel.pool.utilization",
                min(1.0, cell_wall / (jobs * pool_wall.elapsed_s)),
            )
        if cache is not None and metrics is not None:
            cache.collect(metrics)
        if telemetry is not None:
            telemetry.end()
    return results, failures


def parallel_sweep(
    apps: "Iterable[str]",
    configs: "Iterable[int] | None" = None,
    scale: float = DEFAULT_SCALE,
    seed: int = 1994,
    jobs: int = 1,
    cache_dir: "str | Path | None" = None,
    campaign: "CampaignSpec | None" = None,
    retries: int = 1,
    metrics: "MetricsRegistry | None" = None,
    telemetry: "CampaignTelemetry | None" = None,
    statfx_interval_ns: int = 200_000,
    max_events: int | None = None,
    max_sim_time: int | None = None,
    checkpoint: "str | Path | None" = None,
    chaos=None,
    durable_policy=None,
) -> SweepOutcome:
    """Sweep ``apps x configs`` through the pool and the cache.

    A drop-in sibling of :func:`~repro.core.resilience.resilient_sweep`
    returning the same :class:`SweepOutcome` (results in input order,
    per-cell failures isolated), plus ``parallel.*`` / ``cache.*``
    metrics when a registry is passed, and full campaign telemetry
    (event log, progress, Perfetto spans) when a
    :class:`~repro.obs.campaign.CampaignTelemetry` is passed.

    With *checkpoint*, the sweep routes through the crash-safe layer
    (:func:`repro.parallel.durable.durable_sweep`): every cell is
    journaled before dispatch, an interrupted campaign resumes from the
    journal re-running only incomplete cells, and the outcome carries a
    recovery report.
    """
    from repro.core.reference import CONFIGS

    if checkpoint is None and (chaos is not None or durable_policy is not None):
        raise ValueError(
            "host chaos / durable policy require a checkpoint journal "
            "(pass checkpoint=...)"
        )
    if checkpoint is not None:
        from repro.parallel.durable import durable_sweep

        return durable_sweep(
            apps,
            checkpoint,
            configs=configs,
            scale=scale,
            seed=seed,
            jobs=max(jobs, 1),
            cache_dir=cache_dir,
            campaign=campaign,
            retries=retries,
            policy=durable_policy,
            metrics=metrics,
            telemetry=telemetry,
            chaos=chaos,
            statfx_interval_ns=statfx_interval_ns,
            max_events=max_events,
            max_sim_time=max_sim_time,
        )

    if configs is None:
        configs = CONFIGS
    apps = list(apps)
    configs = list(configs)
    base = CellSpec(
        app="",
        n_processors=1,
        scale=scale,
        seed=seed,
        campaign=campaign,
        statfx_interval_ns=statfx_interval_ns,
        max_events=max_events,
        max_sim_time=max_sim_time,
    )
    specs = [
        replace(base, app=app, n_processors=n_proc)
        for app in apps
        for n_proc in configs
    ]
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    results, failures = execute_cells(
        specs,
        jobs=jobs,
        cache=cache,
        retries=retries,
        metrics=metrics,
        telemetry=telemetry,
    )
    outcome = SweepOutcome(scale=scale, seed=seed, failures=failures)
    for app in apps:
        by_config: dict = {}
        for n_proc in configs:
            spec = replace(base, app=app, n_processors=n_proc)
            if spec in results:
                by_config[n_proc] = results[spec]
        outcome.results[app] = by_config
    return outcome
