"""Sweep cells and the one executor that runs them.

The unit of work is a :class:`CellSpec` -- one ``(app, P, scale, seed,
campaign)`` point of a sweep, optionally bounded by the runaway
watchdogs.  :func:`run_cell` executes one spec and returns its
:class:`~repro.core.record.RunResult`, a plain record that pickles for
the pool and the cache; :func:`execute_cells` runs a list of specs
behind the content-addressed :class:`~repro.parallel.cache.ResultCache`
and is the only function
that dispatches sweep cells.  It takes one of three routes, chosen from
its inputs alone:

* **in-process** -- ``jobs == 1``, or at most one cell left to simulate
  after cache hits, with no host-chaos plan and no cell deadline: each
  attempt runs :func:`_worker` in the calling process;
* **pool** -- otherwise, a :class:`~repro.parallel.pool.Pool` of
  heartbeating workers the coordinator can kill, respawn and speculate
  around (chaos and deadlines need a killable worker, so they always
  take this route).  It starts no more workers than there are cells to
  simulate, and dispatches them longest first by
  :func:`~repro.parallel.pool.cost_estimate`, so the sweep's longest
  cells do not trail at the end.  :mod:`repro.parallel.pool` is
  imported only here, and it imports the simulation stack before the
  workers fork;
* **journaled** -- either of the above with a write-ahead
  :class:`~repro.parallel.journal.CampaignJournal`: cells are journaled
  before dispatch, SIGINT/SIGTERM checkpoint the campaign, and cache
  hits are fingerprinted into ``done`` records so it can resume.

On every route a failing attempt is retried with deterministic backoff
(:func:`~repro.parallel.durable.backoff_s`) up to ``1 + retries``
same-seed attempts, and everything done to recover is totalled in a
:class:`~repro.parallel.durable.RecoveryLedger`.

Determinism: every cell is an independent, seeded simulation; results
are keyed by cell -- never by completion order -- so every route yields
byte-identical tables.  Under telemetry or a journal every attempt's
:class:`~repro.obs.campaign.CellSpan` carries the result fingerprint
(:func:`~repro.analyze.race.fingerprint_result`), so equivalence is
checkable across serial, pooled, cached and resumed runs.  Cells run
sink-free; ``CellSpec(fingerprint_schedule=True)`` opts a diagnostic
cell into a :class:`~repro.analyze.sanitize.DeterminismSink` schedule
hash on ``result.schedule_hash`` (the sink changes no model code, so
the hash is that of the program a default run executes).

Telemetry: pass a :class:`~repro.obs.campaign.CampaignTelemetry` and
every submit, cache hit, attempt, retry and recovery is logged as it
happens, with a snapshot of each worker's metric registry shipped back
on its span.  Results stay keyed by spec, so telemetry never perturbs
the tables.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass
from types import FrameType
from typing import TYPE_CHECKING, Any

from repro.core.record import DEFAULT_SCALE
from repro.core.resilience import CellFailure
from repro.obs.hostclock import WallTimer, host_clock_s
from repro.parallel.cache import ResultCache, cell_key
from repro.parallel.durable import (
    CampaignInterrupted,
    DurablePolicy,
    RecoveryLedger,
    backoff_s,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from concurrent.futures import Future

    from repro.core.record import RunResult
    from repro.core.runner import PreRunHook
    from repro.faults.host import HostChaosPlan
    from repro.faults.spec import CampaignSpec
    from repro.obs.campaign import CampaignTelemetry, CellSpan
    from repro.obs.instrument import Observability
    from repro.obs.registry import MetricsRegistry
    from repro.parallel.journal import CampaignJournal
    from repro.parallel.pool import Pool

__all__ = ["CellSpec", "execute_cells", "run_cell"]


def snapshot_result(result: "RunResult") -> "RunResult":
    # Identity, kept only because the benchmark harness (bench/) wraps
    # this name; it goes in the benchmark refresh.
    return result

#: Histogram boundaries for per-cell wall time (seconds).
_CELL_WALL_BOUNDARIES = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0)

#: Rolling window of completed cell walls for the straggler threshold.
_STRAGGLER_WINDOW = 64


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
    #: record the schedule hash on the result.  Diagnostic opt-in: the
    #: sink costs event-loop dispatch but changes no model code.
    fingerprint_schedule: bool = False
    #: Canonical scenario JSON (see
    #: :func:`repro.scenario.schema.canonical_scenario_json`) when this
    #: cell runs a compiled scenario instead of a named built-in app;
    #: ``app`` then carries the scenario name for display/grouping only
    #: -- the cache key is derived from the document digest, never the
    #: name.  A plain string keeps the spec hashable and picklable.
    scenario: str | None = None
    #: Also record the per-iteration pickup and iteration events in the
    #: trace (the ``trace`` command's full event file).
    iteration_events: bool = False
    #: Arm the kernel's tie-break perturbation with this seed (the race
    #: sanitizer's perturbed runs); ``None`` keeps insertion order.
    tie_break_seed: int | None = None
    #: Arm :func:`~repro.analyze.race.plant_order_hazard` (the race
    #: sanitizer's self-test) after any scenario background traffic.
    order_hazard: bool = False

    def __post_init__(self) -> None:
        if self.scenario is not None and self.campaign is not None:
            raise ValueError(
                "a cell cannot combine a scenario with a fault campaign: "
                "express background interference in the scenario document"
            )
        diagnostics = (
            self.iteration_events or self.tie_break_seed is not None or self.order_hazard
        )
        if self.campaign is not None and diagnostics:
            raise ValueError(
                "a fault-campaign cell takes no iteration_events, "
                "tie_break_seed or order_hazard"
            )

    def key(self) -> str:
        """Content-addressed cache key of this cell."""
        return cell_key(self)


def run_cell(spec: CellSpec, obs: "Observability | None" = None) -> "RunResult":
    """Execute one cell and return its result record.

    The one way the package simulates a cell: every route of
    :func:`execute_cells` runs it, in process or in a pool worker, and
    so does every command that runs a single cell (``trace``,
    ``profile``, ``stats``, the race and schedule sanitizers, scenario
    verification); the routes therefore cannot diverge.  Pass an
    :class:`~repro.obs.instrument.Observability` to keep hold of the
    run's metric registry (the telemetry seam: workers snapshot it into
    their :class:`~repro.obs.campaign.CellSpan`); an opted-in
    schedule-order sink is attached to it either way.  With
    ``obs=None`` and no sink no Observability is materialised at all:
    nobody can see the registry a throwaway instance would have
    collected, and skipping the per-event metrics harvest keeps the
    sink-free cell on the fast path end to end.
    """
    sink = None
    if spec.fingerprint_schedule:
        from repro.analyze.sanitize import DeterminismSink
        from repro.obs.instrument import Observability

        sink = DeterminismSink(order_capacity=0)
        if obs is None:
            obs = Observability()
        obs.extra_sinks.append(sink)
    common = {
        "statfx_interval_ns": spec.statfx_interval_ns,
        "obs": obs,
        "max_events": spec.max_events,
        "max_sim_time": spec.max_sim_time,
    }
    if spec.campaign is not None:
        # Looked up on the package at call time, so a wrapper installed
        # there (a tracer, a test double) sees every call.
        from repro import faults

        result = faults.run_with_campaign(
            spec.campaign,
            spec.app,
            spec.n_processors,
            scale=spec.scale,
            seed=spec.seed,
            **common,
        )
    else:
        from repro.core.runner import run_application
        from repro.xylem.params import XylemParams

        background = None
        if spec.scenario is not None:
            import json

            from repro.scenario.compiler import compile_scenario

            compiled = compile_scenario(json.loads(spec.scenario))
            model, config = compiled.model, compiled.config(spec.n_processors)
            background = compiled.pre_run_hook()
        else:
            from repro.apps import resolve_app

            model, config = resolve_app(spec.app)(), None
        hazard = None
        if spec.order_hazard:
            from repro.analyze.race import plant_order_hazard

            hazard = plant_order_hazard()
        result = run_application(
            model,
            spec.n_processors,
            scale=spec.scale,
            config=config,
            os_params=XylemParams(seed=spec.seed),
            pre_run_hook=_chain(background, hazard),
            tie_break_seed=spec.tie_break_seed,
            iteration_events=spec.iteration_events,
            **common,
        )
    if sink is not None:
        result.schedule_hash = sink.schedule_hash
    return snapshot_result(result)


def _chain(*hooks: "PreRunHook | None") -> "PreRunHook | None":
    """One pre-run hook running the given ones in order (``None`` if none)."""
    armed = [hook for hook in hooks if hook is not None]
    if len(armed) < 2:
        return armed[0] if armed else None

    def chained(*stack: Any) -> None:
        for hook in armed:
            hook(*stack)

    return chained


def _worker(payload: tuple) -> tuple:
    """Run one cell attempt; never raises an ``Exception``.

    *payload* is ``(spec, attempt, submit_s, ship_metrics, fingerprint,
    fault)``; returns ``("ok", result, span)`` or ``("err", error_type,
    message, span)`` where *span* is the attempt's
    :class:`~repro.obs.campaign.CellSpan`, carrying the result's
    :func:`~repro.analyze.race.fingerprint_result` digest when
    *fingerprint* is set and the run's metric registry when
    *ship_metrics* is set (only then is either computed).  Catching inside the
    worker keeps exotic exception types (whose constructors don't
    round-trip through pickle) from wedging the result pipe, and makes
    a failed cell cost exactly its own attempt.

    *fault* is the host-chaos seam: a
    :class:`~repro.faults.host.HostFault` applied inside the worker, so
    recovery is exercised against real process-level failures.  A hang
    or slow start strikes before the cell runs; a kill strikes after
    the simulation and before the result is returned, so the whole
    attempt is lost however fast the cell is.
    """
    from repro.obs.campaign import CellSpan

    spec, attempt, submit_s, ship_metrics, fingerprint, fault = payload
    if fault is not None:
        from repro.faults.host import apply_host_fault

        if fault.kind != "worker_kill":
            apply_host_fault(fault)
    obs = None
    if ship_metrics:
        from repro.obs.instrument import Observability

        obs = Observability()
    start_s = host_clock_s()
    try:
        result = run_cell(spec, obs=obs)
    except Exception as exc:  # noqa: BLE001 - isolation boundary
        outcome: tuple = ("err", type(exc).__name__, str(exc))
        fields: dict = {"run_wall_s": 0.0, "failure_kind": type(exc).__name__}
    else:
        outcome = ("ok", result)
        fields = {
            "run_wall_s": result.wall_s,
            "schedule_hash": result.schedule_hash,
            "kernel_stats": dict(result.kernel_stats),
        }
        if fingerprint:
            from repro.analyze.race import fingerprint_result

            fields["result_fingerprint"] = fingerprint_result(result).digest
    span = CellSpan(
        app=spec.app,
        n_processors=spec.n_processors,
        seed=spec.seed,
        attempt=attempt,
        worker_pid=os.getpid(),
        submit_s=submit_s,
        start_s=start_s,
        end_s=host_clock_s(),
        metrics=obs.registry.snapshot() if obs is not None else None,
        **fields,
    )
    if fault is not None and fault.kind == "worker_kill":
        apply_host_fault(fault)
    return (*outcome, span)


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


# -- the in-process slot (the pool's is repro.parallel.pool.Pool) ----------------


class _InProcess:
    """The in-process route: an attempt runs to completion on submit."""

    def submit(self, payload: tuple) -> "Future | None":
        from concurrent.futures import Future

        future: Future = Future()
        future.set_result(_worker(payload))
        return future

    def stale(self, now_s: float, timeout_s: float) -> list[int]:
        return []

    def kill(self) -> None:
        pass

    def respawn(self) -> None:
        pass

    def close(self) -> None:
        pass


@dataclass
class _InFlight:
    """One dispatched attempt the coordinator is tracking."""

    spec: CellSpec
    attempt: int
    submit_s: float
    speculative: bool = False


@dataclass
class _Pending:
    """One attempt scheduled but not yet dispatched (backoff pacing)."""

    spec: CellSpec
    attempt: int
    eligible_s: float


class _StopFlag:
    """Signal-handler target: which signal asked the campaign to stop."""

    def __init__(self) -> None:
        self.reason: str | None = None

    def trip(self, signum: int, frame: "FrameType | None") -> None:
        self.reason = signal.Signals(signum).name


# -- the executor ----------------------------------------------------------------


def execute_cells(
    specs: "list[CellSpec]",
    jobs: int = 1,
    cache: ResultCache | None = None,
    retries: int = 1,
    metrics: "MetricsRegistry | None" = None,
    telemetry: "CampaignTelemetry | None" = None,
    journal: "CampaignJournal | None" = None,
    policy: DurablePolicy | None = None,
    chaos: "HostChaosPlan | None" = None,
    ledger: RecoveryLedger | None = None,
    resumed_keys: "frozenset[str]" = frozenset(),
) -> "tuple[dict[CellSpec, RunResult], list[CellFailure]]":
    """Run every spec to completion behind the cache; survive host failures.

    Returns ``(results, failures)``: *results* maps each completed spec
    to its result, *failures* lists the cells that exhausted their
    ``1 + retries`` same-seed attempts, in input order.  Cache hits skip
    simulation; fresh results are written back.  The route (module
    docstring) follows from *jobs*, *chaos*, ``policy.cell_deadline_s``
    and *journal*.

    With a *journal*, cells whose key is in *resumed_keys* and whose
    result the cache still holds are counted as recovered, and a
    SIGINT/SIGTERM checkpoints the journal and raises
    :class:`~repro.parallel.durable.CampaignInterrupted`.  Pass a
    *ledger* to read back what recovery did.  ``parallel.*``,
    ``parallel.recovery.*`` and ``cache.*`` metrics land in *metrics*,
    or in the telemetry's campaign registry when only *telemetry* is
    given.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    policy = policy if policy is not None else DurablePolicy()
    ledger = ledger if ledger is not None else RecoveryLedger()
    if metrics is None and telemetry is not None:
        metrics = telemetry.registry
    ship = telemetry is not None
    # Spans carry a result fingerprint only where one is read: the
    # campaign log and the journal's done records.
    fingerprint = ship or journal is not None

    results: "dict[CellSpec, RunResult]" = {}
    errors: "dict[CellSpec, tuple[str, str]]" = {}
    attempts: "dict[CellSpec, int]" = {}
    failed: "set[CellSpec]" = set()
    recent_walls: "deque[float]" = deque(maxlen=_STRAGGLER_WINDOW)
    speculated: "set[CellSpec]" = set()

    if telemetry is not None:
        telemetry.begin(specs, jobs)

    def _recover_event(kind: str, **fields: object) -> None:
        if telemetry is not None:
            telemetry.on_recovery(kind, **fields)

    # Serve cache first: journal-recovered cells and ordinary warm hits.
    uncached: "list[CellSpec]" = []
    for spec in specs:
        hit = None
        if cache is not None:
            key = spec.key()
            hit = cache.get(key)
        if hit is not None:
            results[spec] = hit
            if journal is not None:
                from repro.analyze.race import fingerprint_result

                journal.record_done(spec, hit, fingerprint_result(hit).digest)
                if key in resumed_keys:
                    ledger.resumed_cells += 1
                    _recover_event("resumed_cell", app=spec.app, p=spec.n_processors)
            if telemetry is not None:
                telemetry.on_cache_hit(spec, hit)
            continue
        attempts[spec] = 1
        uncached.append(spec)

    # Chaos and deadlines need a worker the coordinator can kill; without
    # them a pool pays off only for two or more cells to simulate.
    killable = chaos is not None or policy.cell_deadline_s is not None
    workers = max(1, min(jobs, len(uncached)))
    in_process = not uncached or (workers == 1 and not killable)
    if not in_process:
        from repro.parallel import pool

        uncached = pool.longest_first(uncached)
    pending: "deque[_Pending]" = deque(
        _Pending(spec=spec, attempt=1, eligible_s=0.0) for spec in uncached
    )
    # Attempts in flight at once.  The pool keeps a second attempt queued
    # behind each worker, so no worker idles while the coordinator
    # unpickles and stores a result -- unless a cell deadline is set: it
    # counts from dispatch, so no attempt may wait for a worker.
    depth = workers if in_process or policy.cell_deadline_s is not None else 2 * workers
    inflight: "dict[Future, _InFlight]" = {}
    live: "dict[CellSpec, list[Future]]" = {}
    slots: "_InProcess | Pool" = (
        _InProcess()
        if in_process
        else pool.Pool(workers, policy.heartbeat_interval_s)
    )
    stop = _StopFlag()
    previous_handlers: "dict[int, object]" = {}
    if journal is not None and threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGINT, signal.SIGTERM):
            previous_handlers[signum] = signal.signal(signum, stop.trip)

    def _submit(entry: _Pending, speculative: bool = False) -> bool:
        """Dispatch one attempt; False if the pool broke since the last poll."""
        fault = (
            chaos.for_cell(entry.spec.app, entry.spec.n_processors, entry.attempt)
            if chaos is not None and not speculative
            else None
        )
        submit_s = (
            telemetry.on_submit(entry.spec, entry.attempt)
            if telemetry is not None
            else host_clock_s()
        )
        if journal is not None:
            journal.record_dispatch(entry.spec, entry.attempt)
        future = slots.submit(
            (entry.spec, entry.attempt, submit_s, ship, fingerprint, fault)
        )
        if future is None:
            return False
        inflight[future] = _InFlight(
            spec=entry.spec,
            attempt=entry.attempt,
            submit_s=submit_s,
            speculative=speculative,
        )
        live.setdefault(entry.spec, []).append(future)
        return True

    def _schedule_retry(spec: CellSpec, kind: str, message: str) -> None:
        """One more same-seed attempt after deterministic backoff."""
        if spec in results or spec in failed:
            return
        errors[spec] = (kind, message)
        if attempts[spec] > retries:
            failed.add(spec)
            if journal is not None:
                journal.record_failed(
                    spec,
                    CellFailure(
                        app=spec.app,
                        n_processors=spec.n_processors,
                        attempts=attempts[spec],
                        error_type=kind,
                        message=message,
                    ),
                )
            return
        attempts[spec] += 1
        wait_s = backoff_s(
            attempts[spec] - 1, policy.backoff_base_s, policy.backoff_cap_s
        )
        ledger.retries += 1
        ledger.fault_dwell_s += wait_s
        _observe(metrics, "counter", "parallel.retries", 1)
        _recover_event(
            "retry",
            app=spec.app,
            p=spec.n_processors,
            attempt=attempts[spec],
            backoff_s=wait_s,
            error=kind,
        )
        pending.append(
            _Pending(
                spec=spec, attempt=attempts[spec], eligible_s=host_clock_s() + wait_s
            )
        )

    def _respawn(
        reason: str,
        affected_error: str,
        guilty: "set[CellSpec] | None" = None,
    ) -> None:
        """Replace the pool; reschedule everything that was in flight.

        Cells in *guilty* burn a retry attempt (their own attempt
        misbehaved); innocent bystanders whose pool was torn down under
        them re-queue at their current attempt -- the cell-level bound
        is the deadline, and another cell's fault must not eat their
        retry budget.  ``guilty=None`` means every affected cell is
        guilty (a broken pool cannot say which worker died).  Every
        destroyed partial attempt's age lands in ``lost_work_s``.
        """
        ledger.respawns += 1
        _recover_event("respawn", reason=reason)
        slots.kill()
        flights = list(inflight.values())
        inflight.clear()
        live.clear()
        now_s = host_clock_s()
        for rec in flights:
            if rec.spec in results or rec.spec in failed:
                continue
            ledger.lost_work_s += max(0.0, now_s - rec.submit_s)
            if rec.speculative:
                speculated.discard(rec.spec)
                # Was the primary also in flight?  Both died with the
                # pool; one reschedule below covers the cell.
                continue
            if guilty is None or rec.spec in guilty:
                _schedule_retry(rec.spec, affected_error, reason)
            else:
                pending.append(
                    _Pending(
                        spec=rec.spec,
                        attempt=rec.attempt,
                        eligible_s=now_s + policy.backoff_base_s,
                    )
                )
        slots.respawn()

    def _complete(future: Future, rec: _InFlight) -> bool:
        """Fold one finished future in; returns True if the pool broke."""
        try:
            payload = future.result()
        except Exception as exc:  # noqa: BLE001 - pool breakage
            if rec.spec in results or rec.spec in failed:
                return True
            ledger.worker_deaths += 1
            ledger.lost_work_s += max(0.0, host_clock_s() - rec.submit_s)
            _observe(metrics, "counter", "parallel.worker_deaths", 1)
            _recover_event(
                "worker_death",
                app=rec.spec.app,
                p=rec.spec.n_processors,
                error=type(exc).__name__,
            )
            if rec.speculative:
                # The primary attempt reschedules the cell (it is still
                # tracked, or its own death record handles it).
                speculated.discard(rec.spec)
            else:
                _schedule_retry(rec.spec, type(exc).__name__, str(exc))
            return True
        spec = rec.spec
        span: CellSpan = payload[-1]
        if spec in results:
            # The sibling of a speculative pair: its result arrived
            # second and is discarded (byte-identical by determinism).
            ledger.speculative_wasted += 1
            _recover_event("speculative_wasted", app=spec.app, p=spec.n_processors)
            return False
        if payload[0] == "ok":
            result: "RunResult" = payload[1]
            results[spec] = result
            errors.pop(spec, None)
            if cache is not None:
                cache.put(spec.key(), result)
            if journal is not None:
                assert span.result_fingerprint is not None
                journal.record_done(spec, result, span.result_fingerprint)
            recent_walls.append(span.span_s)
            if rec.speculative:
                ledger.speculative_wins += 1
                _recover_event("speculative_win", app=spec.app, p=spec.n_processors)
            # First result wins: cancel the sibling if it has not
            # started; a running sibling finishes as "wasted" above.
            for sibling in live.get(spec, []):
                if sibling is not future and sibling.cancel():
                    inflight.pop(sibling, None)
                    ledger.speculative_cancelled += 1
            live.pop(spec, None)
            if telemetry is not None:
                telemetry.on_span(span)
        else:
            _schedule_retry(spec, payload[1], payload[2])
            if telemetry is not None:
                telemetry.on_span(span, will_retry=spec not in failed)
        return False

    def _check_health(now_s: float) -> None:
        """Deadline + heartbeat sweep; respawns at most once per call."""
        if policy.cell_deadline_s is not None:
            overdue = [
                rec
                for rec in inflight.values()
                if now_s - rec.submit_s > policy.cell_deadline_s
            ]
            if overdue:
                ledger.deadline_kills += len(overdue)
                for rec in overdue:
                    _recover_event(
                        "deadline_kill",
                        app=rec.spec.app,
                        p=rec.spec.n_processors,
                        age_s=round(now_s - rec.submit_s, 3),
                    )
                _respawn(
                    "cell deadline exceeded",
                    "DeadlineExceeded",
                    guilty={rec.spec for rec in overdue},
                )
                return
        stalled = slots.stale(now_s, policy.heartbeat_timeout_s)
        if stalled and inflight:
            ledger.stalled_workers += len(stalled)
            for pid in stalled:
                _recover_event("stalled_worker", pid=pid)
            _respawn("worker heartbeat lost", "WorkerStalled", guilty=set())

    def _maybe_speculate(now_s: float) -> None:
        """Re-dispatch the slowest straggler onto a free slot."""
        if (
            not policy.speculate
            or pending
            or len(inflight) >= workers
            or len(recent_walls) < policy.straggler_min_samples
        ):
            return
        from repro.obs.campaign import percentile

        p95 = percentile(list(recent_walls), 0.95)
        if p95 is None:
            return
        threshold = max(policy.straggler_factor * p95, policy.straggler_floor_s)
        for rec in sorted(inflight.values(), key=lambda r: r.submit_s):
            if rec.speculative or rec.spec in speculated:
                continue
            if now_s - rec.submit_s <= threshold:
                continue
            speculated.add(rec.spec)
            ledger.stragglers += 1
            _observe(metrics, "counter", "parallel.speculative_dispatches", 1)
            _recover_event(
                "speculative_dispatch",
                app=rec.spec.app,
                p=rec.spec.n_processors,
                age_s=round(now_s - rec.submit_s, 3),
                threshold_s=round(threshold, 3),
            )
            _submit(
                _Pending(spec=rec.spec, attempt=rec.attempt, eligible_s=0.0),
                speculative=True,
            )
            return

    def _fill_slots(now_s: float) -> None:
        """Dispatch every eligible pending attempt a free slot can take."""
        while pending and len(inflight) < depth:
            entry = min(pending, key=lambda e: e.eligible_s)
            if entry.eligible_s > now_s:
                return
            pending.remove(entry)
            if entry.spec in results or entry.spec in failed:
                continue
            if not _submit(entry):
                # A worker died since the last poll.  The next wait()
                # reaps its in-flight futures and respawns; with none in
                # flight, respawn here.
                pending.append(entry)
                if not inflight:
                    _respawn("broken process pool", "BrokenProcessPool")
                return

    interrupted: "CampaignInterrupted | None" = None
    try:
        with WallTimer() as pool_wall:
            while len(results) + len(failed) < len(specs):
                if stop.reason is not None:
                    assert journal is not None
                    ledger.checkpoints += 1
                    slots.kill()
                    journal.record_checkpoint(stop.reason)
                    _recover_event("checkpoint", reason=stop.reason)
                    interrupted = CampaignInterrupted(journal.path, stop.reason)
                    break
                now_s = host_clock_s()
                _fill_slots(now_s)
                _maybe_speculate(now_s)
                if not inflight:
                    if not pending:
                        break
                    next_eligible = min(e.eligible_s for e in pending)
                    time.sleep(
                        min(
                            policy.poll_interval_s,
                            max(0.0, next_eligible - host_clock_s()),
                        )
                    )
                    continue
                from concurrent.futures import FIRST_COMPLETED, wait

                finished, _ = wait(
                    list(inflight),
                    timeout=policy.poll_interval_s,
                    return_when=FIRST_COMPLETED,
                )
                pool_broke = False
                for future in finished:
                    rec = inflight.pop(future, None)
                    if rec is None:
                        continue
                    siblings = live.get(rec.spec)
                    if siblings is not None and future in siblings:
                        siblings.remove(future)
                        if not siblings:
                            live.pop(rec.spec, None)
                    pool_broke = _complete(future, rec) or pool_broke
                if pool_broke:
                    _respawn("broken process pool", "BrokenProcessPool")
                else:
                    _check_health(host_clock_s())
    finally:
        # Finalize on *any* exit path -- an escaping exception must
        # still leave no worker behind, a closed, valid campaign log and
        # flushed metrics.
        slots.close()
        for signum, handler in previous_handlers.items():
            signal.signal(signum, handler)  # type: ignore[arg-type]
        failures = [
            CellFailure(
                app=spec.app,
                n_processors=spec.n_processors,
                attempts=attempts.get(spec, 0),
                error_type=errors[spec][0],
                message=errors[spec][1],
            )
            for spec in specs
            if spec in failed and spec in errors
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
        if pool_wall.elapsed_s > 0:
            _observe(
                metrics,
                "gauge",
                "parallel.pool.utilization",
                min(1.0, cell_wall / (workers * pool_wall.elapsed_s)),
            )
        if metrics is not None:
            ledger.collect(metrics)
            if cache is not None:
                cache.collect(metrics)
        if telemetry is not None:
            telemetry.end()
    if interrupted is not None:
        raise interrupted
    return results, failures
