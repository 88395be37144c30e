"""Crash-safe campaign execution: journal, health, speculation, resume.

:func:`~repro.parallel.executor.execute_cells` assumes the host behaves;
this layer assumes it does not.  It wraps the same worker entry point
(:func:`~repro.parallel.executor._worker` -- serial and pooled cells
stay byte-identical) in the machinery long-running measurement
campaigns actually need:

* **Write-ahead journal + resume** -- every cell's spec and key are
  journaled before any dispatch (:mod:`repro.parallel.journal`);
  completions land in the content-addressed
  :class:`~repro.parallel.cache.ResultCache` and are indexed by
  ``done`` records, so a resumed campaign re-runs only incomplete cells
  and refuses to mix code versions.
* **Worker health + self-healing pools** -- workers heartbeat through
  per-PID files; the coordinator detects dead workers (broken pool),
  stalled workers (stale heartbeats) and over-deadline cells, SIGKILLs
  the offenders, respawns the pool and reschedules the affected cells
  with deterministic exponential backoff (:func:`backoff_s`: jitter-free
  by construction, so retry schedules are reproducible).
* **Straggler detection + speculative re-dispatch** -- cells running
  past a rolling-p95-based threshold are re-dispatched on a free slot;
  the simulation is seed-deterministic, so first-result-wins is safe
  and the duplicate is cancelled (or its late result discarded) and
  counted.
* **Graceful degradation** -- SIGINT/SIGTERM checkpoint the journal and
  raise :class:`CampaignInterrupted`; cache I/O trouble degrades to
  cache-off (:mod:`repro.parallel.cache`) instead of aborting.

Everything the layer does to *recover* is narrated through the campaign
telemetry seam (``recovery`` events in the JSONL log, ``campaign.
recovery.*`` counters) and totalled in a :class:`RecoveryLedger`, which
renders the ``cedar-repro/recovery-report/v1`` JSON.  The recovered
campaign's tables are byte-identical to an uninterrupted run: that is
the acceptance gate ``scripts/chaos_sweep.py`` enforces.
"""

from __future__ import annotations

import json
import os
import signal
import tempfile
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from pathlib import Path
from types import FrameType
from typing import TYPE_CHECKING, Mapping

from repro.analyze.race import fingerprint_result
from repro.core.resilience import CellFailure, SweepOutcome
from repro.core.runner import DEFAULT_SCALE
from repro.obs.campaign import CellSpan, percentile
from repro.obs.hostclock import WallTimer, host_clock_s
from repro.parallel.cache import ResultCache, code_fingerprint
from repro.parallel.executor import CellSpec, _observe, _worker
from repro.parallel.journal import (
    CampaignJournal,
    JournalError,
    load_journal,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from collections.abc import Iterable, Sequence

    from repro.core.runner import RunResult
    from repro.faults.host import HostChaosPlan, HostFault
    from repro.faults.spec import CampaignSpec
    from repro.obs.campaign import CampaignTelemetry
    from repro.obs.registry import MetricsRegistry

__all__ = [
    "RECOVERY_REPORT_SCHEMA",
    "CampaignInterrupted",
    "DurablePolicy",
    "RecoveryLedger",
    "backoff_s",
    "durable_execute_cells",
    "durable_sweep",
    "resume_sweep",
    "save_recovery_report",
    "stale_workers",
]

RECOVERY_REPORT_SCHEMA = "cedar-repro/recovery-report/v1"

#: Rolling window of completed cell walls for the straggler threshold.
_STRAGGLER_WINDOW = 64


class CampaignInterrupted(RuntimeError):
    """The campaign was checkpointed by SIGINT/SIGTERM and can resume.

    Carries the journal path so the CLI can print the exact resume
    command.  Raised *after* the journal checkpoint record, the
    campaign log and the telemetry registry are all flushed -- nothing
    about the interrupt is lossy except the in-flight cells, which the
    resume leg re-runs.
    """

    def __init__(self, journal_path: Path, reason: str) -> None:
        super().__init__(
            f"campaign checkpointed on {reason}; resume with: "
            f"cedar-repro resume {journal_path}"
        )
        self.journal_path = journal_path
        self.reason = reason


def backoff_s(attempt: int, base_s: float, cap_s: float) -> float:
    """Deterministic exponential backoff before retry *attempt*.

    ``base * 2**(attempt-1)`` capped at *cap_s*, with **no jitter**:
    two campaigns that fail the same way wait the same way, so retry
    schedules are as reproducible as the simulations they pace
    (jitter's usual job -- decorrelating contending clients -- does not
    apply to a single coordinator).
    """
    if attempt < 1:
        raise ValueError(f"attempt must be >= 1, got {attempt}")
    return min(cap_s, base_s * (2.0 ** (attempt - 1)))


@dataclass(frozen=True)
class DurablePolicy:
    """Tunables for the health monitor, retries and speculation."""

    #: Worker heartbeat cadence (seconds between beats).
    heartbeat_interval_s: float = 0.25
    #: A worker whose last beat is older than this is presumed stalled
    #: and is SIGKILLed (the pool respawns).
    heartbeat_timeout_s: float = 30.0
    #: Wall budget per cell attempt, measured from dispatch; ``None``
    #: disables the deadline (the default: cells can be legitimately
    #: huge).  An over-deadline attempt is killed and retried.
    cell_deadline_s: float | None = None
    #: Exponential backoff parameters for host-failure retries.
    backoff_base_s: float = 0.25
    backoff_cap_s: float = 4.0
    #: Whether to speculatively re-dispatch stragglers.
    speculate: bool = True
    #: Minimum completed samples before a straggler threshold exists.
    straggler_min_samples: int = 3
    #: Speculate when a cell's age exceeds ``factor * rolling_p95``...
    straggler_factor: float = 3.0
    #: ...but never below this floor (tiny cells jitter relatively).
    straggler_floor_s: float = 1.0
    #: Coordinator poll cadence.
    poll_interval_s: float = 0.05


@dataclass
class RecoveryLedger:
    """Everything the durable layer did to keep a campaign alive."""

    resumed_cells: int = 0
    retries: int = 0
    respawns: int = 0
    worker_deaths: int = 0
    deadline_kills: int = 0
    stalled_workers: int = 0
    stragglers: int = 0
    speculative_wins: int = 0
    speculative_wasted: int = 0
    speculative_cancelled: int = 0
    checkpoints: int = 0
    #: Host seconds deliberately spent waiting (backoff pacing): fully
    #: deterministic, so reported separately from machinery cost.
    fault_dwell_s: float = 0.0
    #: Host seconds of partial attempts destroyed by failures: the age
    #: of every in-flight attempt at the moment its worker died or its
    #: pool was torn down.  For an injected hang this includes the
    #: deadline dwell (the attempt's age when killed >= the deadline).
    lost_work_s: float = 0.0

    def collect(self, registry: "MetricsRegistry") -> None:
        """Fold the ledger into ``parallel.recovery.*`` metrics."""
        registry.counter("parallel.recovery.resumed_cells").inc(self.resumed_cells)
        registry.counter("parallel.recovery.retries").inc(self.retries)
        registry.counter("parallel.recovery.respawns").inc(self.respawns)
        registry.counter("parallel.recovery.worker_deaths").inc(self.worker_deaths)
        registry.counter("parallel.recovery.deadline_kills").inc(self.deadline_kills)
        registry.counter("parallel.recovery.stragglers").inc(self.stragglers)
        registry.counter("parallel.recovery.speculative_wins").inc(
            self.speculative_wins
        )
        registry.counter("parallel.recovery.speculative_wasted").inc(
            self.speculative_wasted
        )
        registry.gauge("parallel.recovery.fault_dwell_s").set(self.fault_dwell_s)
        registry.gauge("parallel.recovery.lost_work_s").set(self.lost_work_s)

    def report(
        self,
        label: str,
        cells_total: int,
        cells_completed: int,
        wall_s: float,
        clean_wall_s: float | None = None,
        injected_dwell_s: float = 0.0,
        cache: "ResultCache | None" = None,
    ) -> dict:
        """The ``cedar-repro/recovery-report/v1`` JSON document.

        *clean_wall_s* is the reference wall of an undisturbed run of
        the same campaign (the chaos harness measures one); when given,
        the report carries both the raw wall overhead and the *recovery
        overhead* -- raw overhead minus everything the faults
        themselves cost (backoff dwell + destroyed partial attempts +
        *injected_dwell_s*, the sleeps the chaos plan injected), i.e.
        the cost of the recovery machinery proper
        (``docs/resilience.md`` defines the metric precisely).
        """
        dwell = self.fault_dwell_s + self.lost_work_s + injected_dwell_s
        overhead: dict[str, float | None] = {
            "clean_wall_s": round(clean_wall_s, 6)
            if clean_wall_s is not None
            else None,
            "overhead_pct": None,
            "recovery_overhead_pct": None,
        }
        if clean_wall_s is not None and clean_wall_s > 0:
            overhead["overhead_pct"] = round(
                100.0 * (wall_s - clean_wall_s) / clean_wall_s, 3
            )
            overhead["recovery_overhead_pct"] = round(
                100.0 * max(0.0, wall_s - dwell - clean_wall_s) / clean_wall_s, 3
            )
        return {
            "schema": RECOVERY_REPORT_SCHEMA,
            "label": label,
            "code_fingerprint": code_fingerprint(),
            "cells": {
                "total": cells_total,
                "completed": cells_completed,
                "resumed_from_journal": self.resumed_cells,
            },
            "recovery": {
                "retries": self.retries,
                "respawns": self.respawns,
                "worker_deaths": self.worker_deaths,
                "deadline_kills": self.deadline_kills,
                "stalled_workers": self.stalled_workers,
                "stragglers": self.stragglers,
                "speculative_wins": self.speculative_wins,
                "speculative_wasted": self.speculative_wasted,
                "speculative_cancelled": self.speculative_cancelled,
                "checkpoints": self.checkpoints,
            },
            "cache": {
                "write_errors": cache.write_errors if cache is not None else 0,
                "quarantined": cache.quarantined if cache is not None else 0,
                "disabled": bool(cache.disabled) if cache is not None else False,
            },
            "wall": {
                "wall_s": round(wall_s, 6),
                "fault_dwell_s": round(self.fault_dwell_s, 6),
                "lost_work_s": round(self.lost_work_s, 6),
                "injected_dwell_s": round(injected_dwell_s, 6),
                **overhead,
            },
        }


def save_recovery_report(report: dict, path: str | Path) -> None:
    """Write a recovery report as pretty-printed JSON."""
    Path(path).write_text(json.dumps(report, indent=2) + "\n")


# -- worker side -------------------------------------------------------------


def _heartbeat_loop(path: str, interval_s: float) -> None:
    """Daemon thread: stamp this worker's liveness file forever.

    The stamp is written atomically (temp + ``os.replace``) so the
    coordinator never reads a torn/empty beat and mistakes a busy
    worker for a dead one.
    """
    target = Path(path)
    tmp = Path(f"{path}.tmp")
    while True:
        try:
            tmp.write_text(f"{host_clock_s():.6f}")
            os.replace(tmp, target)
        except OSError:
            pass
        time.sleep(interval_s)


def _durable_init(hb_dir: str, interval_s: float) -> None:
    """Pool initializer: ignore SIGINT, start the heartbeat thread.

    SIGINT belongs to the coordinator (it checkpoints); a worker that
    dies of the operator's ^C would just be one more death to recover
    from, so it is ignored here.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    path = os.path.join(hb_dir, f"hb-{os.getpid()}")
    thread = threading.Thread(
        target=_heartbeat_loop, args=(path, interval_s), daemon=True
    )
    thread.start()


def _durable_worker(
    payload: "tuple[CellSpec, int, float, bool, HostFault | None]",
) -> tuple:
    """Pool entry point: optionally sabotaged, otherwise `_worker`.

    The chaos seam: when the coordinator's plan names this cell
    attempt, the fault is applied *inside* the worker, so recovery is
    exercised against real process-level failures, not mocks.  A hang
    or slow start strikes before the cell runs; a kill strikes after
    the simulation and before the result is returned, so the whole
    attempt is lost however fast the cell is.
    """
    spec, attempt, submit_s, ship, fault = payload
    if fault is None:
        return _worker((spec, attempt, submit_s, ship))
    from repro.faults.host import apply_host_fault

    if fault.kind != "worker_kill":
        apply_host_fault(fault)
    outcome = _worker((spec, attempt, submit_s, ship))
    if fault.kind == "worker_kill":
        apply_host_fault(fault)
    return outcome


# -- coordinator-side health helpers -----------------------------------------


def stale_workers(hb_dir: str | Path, now_s: float, timeout_s: float) -> list[int]:
    """PIDs of workers whose heartbeat is older than *timeout_s*.

    Reads the per-PID liveness files the workers stamp.  A file that
    vanished mid-scan or does not parse is treated as *alive* -- the
    worker was writing it moments ago; only a well-formed beat that has
    genuinely aged out counts as stale.  Pure: callers decide what to
    kill.
    """
    stale: list[int] = []
    try:
        entries = sorted(Path(hb_dir).glob("hb-*"))
    except OSError:
        return stale
    for entry in entries:
        try:
            pid = int(entry.name.split("-", 1)[1])
        except (IndexError, ValueError):
            continue  # a writer's temp file, not a beat
        try:
            beat = float(entry.read_text())
        except (OSError, ValueError):
            continue
        if now_s - beat > timeout_s:
            stale.append(pid)
    return stale


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


# -- the durable executor -----------------------------------------------------


def durable_execute_cells(
    specs: "list[CellSpec]",
    journal: CampaignJournal,
    cache: ResultCache,
    jobs: int = 2,
    retries: int = 3,
    policy: DurablePolicy | None = None,
    metrics: "MetricsRegistry | None" = None,
    telemetry: "CampaignTelemetry | None" = None,
    chaos: "HostChaosPlan | None" = None,
    resumed_keys: "frozenset[str] | None" = None,
    handle_signals: bool = True,
) -> "tuple[dict[CellSpec, RunResult], list[CellFailure], RecoveryLedger]":
    """Run every spec to completion, surviving host-level failures.

    The crash-safe sibling of
    :func:`~repro.parallel.executor.execute_cells`: same results
    contract (results keyed by spec, failures in input order), plus the
    journal, the health monitor, deterministic-backoff retries,
    straggler speculation and SIGINT/SIGTERM checkpointing.  *cache*
    and *journal* are mandatory -- they are what make the campaign
    durable.  Cells whose key is in *resumed_keys* and whose result the
    cache still holds are served without simulation and counted as
    recovered.

    Returns ``(results, failures, ledger)``.  Raises
    :class:`CampaignInterrupted` after checkpointing on a signal.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    policy = policy if policy is not None else DurablePolicy()
    if metrics is None and telemetry is not None:
        metrics = telemetry.registry
    resumed_keys = resumed_keys if resumed_keys is not None else frozenset()

    ledger = RecoveryLedger()
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
    pending: "deque[_Pending]" = deque()
    for spec in specs:
        key = spec.key()
        hit = cache.get(key)
        if hit is not None:
            results[spec] = hit
            journal.record_done(spec, hit, fingerprint_result(hit).digest)
            if key in resumed_keys:
                ledger.resumed_cells += 1
                _recover_event("resumed_cell", app=spec.app, p=spec.n_processors)
            if telemetry is not None:
                telemetry.on_cache_hit(spec, hit)
            continue
        attempts[spec] = 1
        pending.append(_Pending(spec=spec, attempt=1, eligible_s=0.0))

    stop = _StopFlag()
    previous_handlers: "dict[int, object]" = {}
    if handle_signals and threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGINT, signal.SIGTERM):
            previous_handlers[signum] = signal.signal(signum, stop.trip)

    hb_dir = tempfile.mkdtemp(prefix="cedar-hb-")
    inflight: "dict[Future, _InFlight]" = {}
    live: "dict[CellSpec, list[Future]]" = {}
    pool: "ProcessPoolExecutor | None" = None

    def _new_pool() -> ProcessPoolExecutor:
        for entry in Path(hb_dir).glob("hb-*"):
            try:
                entry.unlink()
            except OSError:
                pass
        return ProcessPoolExecutor(
            max_workers=jobs,
            initializer=_durable_init,
            initargs=(hb_dir, policy.heartbeat_interval_s),
        )

    def _worker_pids() -> list[int]:
        pids = []
        for entry in Path(hb_dir).glob("hb-*"):
            try:
                pids.append(int(entry.name.split("-", 1)[1]))
            except (IndexError, ValueError):
                continue
        return pids

    def _kill(pids: "Iterable[int]") -> None:
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except (OSError, ProcessLookupError):
                continue

    def _submit(entry: _Pending, speculative: bool = False) -> bool:
        """Dispatch one attempt; False if the pool broke since the last poll."""
        assert pool is not None
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
        journal.record_dispatch(entry.spec, entry.attempt)
        ship = telemetry is not None
        try:
            future = pool.submit(
                _durable_worker, (entry.spec, entry.attempt, submit_s, ship, fault)
            )
        except BrokenProcessPool:
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
        nonlocal pool
        ledger.respawns += 1
        _recover_event("respawn", reason=reason)
        _kill(_worker_pids())
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
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
        pool = _new_pool()

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
            _recover_event(
                "speculative_wasted", app=spec.app, p=spec.n_processors
            )
            return False
        if payload[0] == "ok":
            result: "RunResult" = payload[1]
            results[spec] = result
            errors.pop(spec, None)
            cache.put(spec.key(), result)
            assert span.result_fingerprint is not None
            journal.record_done(spec, result, span.result_fingerprint)
            recent_walls.append(span.span_s)
            if rec.speculative:
                ledger.speculative_wins += 1
                _recover_event(
                    "speculative_win", app=spec.app, p=spec.n_processors
                )
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
        stalled = stale_workers(hb_dir, now_s, policy.heartbeat_timeout_s)
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
            or len(inflight) >= jobs
            or len(recent_walls) < policy.straggler_min_samples
        ):
            return
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

    def _checkpoint(reason: str) -> None:
        ledger.checkpoints += 1
        _kill(_worker_pids())
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        journal.record_checkpoint(reason)
        _recover_event("checkpoint", reason=reason)

    interrupted: "CampaignInterrupted | None" = None
    try:
        with WallTimer() as pool_wall:
            if pending:
                pool = _new_pool()
            while len(results) + len(failed) < len(specs):
                if stop.reason is not None:
                    _checkpoint(stop.reason)
                    interrupted = CampaignInterrupted(journal.path, stop.reason)
                    break
                now_s = host_clock_s()
                while pending and len(inflight) < jobs:
                    entry = min(pending, key=lambda e: e.eligible_s)
                    if entry.eligible_s > now_s:
                        break
                    pending.remove(entry)
                    if entry.spec in results or entry.spec in failed:
                        continue
                    if not _submit(entry):
                        # A worker died since the last poll.  The next
                        # wait() reaps its in-flight futures and
                        # respawns; with none in flight, respawn here.
                        pending.append(entry)
                        if not inflight:
                            _respawn("broken process pool", "BrokenProcessPool")
                        break
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
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        _kill(_worker_pids())
        for entry_path in Path(hb_dir).glob("hb-*"):
            try:
                entry_path.unlink()
            except OSError:
                pass
        try:
            os.rmdir(hb_dir)
        except OSError:
            pass
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
        if metrics is not None:
            ledger.collect(metrics)
            cache.collect(metrics)
        if telemetry is not None:
            telemetry.end()
        journal.close()
    if interrupted is not None:
        raise interrupted
    return results, failures, ledger


# -- sweep-shaped entry points ------------------------------------------------


def _sweep_specs(
    apps: "Sequence[str]",
    configs: "Sequence[int]",
    scale: float,
    seed: int,
    campaign: "CampaignSpec | None",
    statfx_interval_ns: int,
    max_events: int | None,
    max_sim_time: int | None,
) -> "list[CellSpec]":
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
    return [
        replace(base, app=app, n_processors=n_proc)
        for app in apps
        for n_proc in configs
    ]


def _assemble_outcome(
    specs: "list[CellSpec]",
    results: "Mapping[CellSpec, RunResult]",
    failures: "list[CellFailure]",
    scale: float,
    seed: int,
    recovery: "dict | None" = None,
) -> SweepOutcome:
    outcome = SweepOutcome(
        scale=scale, seed=seed, failures=failures, recovery=recovery
    )
    for spec in specs:
        by_config = outcome.results.setdefault(spec.app, {})
        if spec in results:
            by_config[spec.n_processors] = results[spec]
    return outcome


def durable_sweep(
    apps: "Iterable[str]",
    checkpoint: str | Path,
    configs: "Iterable[int] | None" = None,
    scale: float = DEFAULT_SCALE,
    seed: int = 1994,
    jobs: int = 2,
    cache_dir: "str | Path | None" = None,
    campaign: "CampaignSpec | None" = None,
    retries: int = 3,
    policy: DurablePolicy | None = None,
    metrics: "MetricsRegistry | None" = None,
    telemetry: "CampaignTelemetry | None" = None,
    chaos: "HostChaosPlan | None" = None,
    label: str = "campaign",
    statfx_interval_ns: int = 200_000,
    max_events: int | None = None,
    max_sim_time: int | None = None,
    handle_signals: bool = True,
) -> SweepOutcome:
    """Crash-safe sibling of :func:`~repro.parallel.parallel_sweep`.

    *checkpoint* names the write-ahead journal.  If it does not exist,
    it is created (and the campaign starts fresh); if it exists, the
    campaign **resumes**: the journal's fingerprint is validated, its
    cell set is checked against this call's grid, and completed cells
    are served from the cache.  The returned outcome additionally
    carries the recovery report on ``outcome.recovery``.
    """
    from repro.core.reference import CONFIGS

    if configs is None:
        configs = CONFIGS
    apps = list(apps)
    configs = list(configs)
    specs = _sweep_specs(
        apps, configs, scale, seed, campaign, statfx_interval_ns,
        max_events, max_sim_time,
    )
    checkpoint = Path(checkpoint)
    if cache_dir is None:
        cache_dir = checkpoint.with_name(checkpoint.name + ".cache")
    cache = ResultCache(cache_dir)
    resumed_keys: frozenset[str] = frozenset()
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
            label=label,
            cache_dir=cache_dir,
            sweep={
                "apps": apps,
                "configs": configs,
                "scale": scale,
                "seed": seed,
                "campaign": campaign.to_dict() if campaign is not None else None,
            },
        )
    with WallTimer() as wall:
        results, failures, ledger = durable_execute_cells(
            specs,
            journal=journal,
            cache=cache,
            jobs=jobs,
            retries=retries,
            policy=policy,
            metrics=metrics,
            telemetry=telemetry,
            chaos=chaos,
            resumed_keys=resumed_keys,
            handle_signals=handle_signals,
        )
    recovery = ledger.report(
        label=label,
        cells_total=len(specs),
        cells_completed=len(results),
        wall_s=wall.elapsed_s,
        cache=cache,
    )
    return _assemble_outcome(specs, results, failures, scale, seed, recovery)


def resume_sweep(
    journal_path: str | Path,
    jobs: int = 2,
    cache_dir: "str | Path | None" = None,
    retries: int = 3,
    policy: DurablePolicy | None = None,
    metrics: "MetricsRegistry | None" = None,
    telemetry: "CampaignTelemetry | None" = None,
    handle_signals: bool = True,
) -> SweepOutcome:
    """Resume an interrupted campaign from its write-ahead journal.

    Loads the journal, refuses a code-fingerprint mismatch
    (:class:`~repro.parallel.journal.JournalMismatchError`), serves
    completed cells from the recorded result cache, and re-runs only
    the incomplete ones.  The final outcome -- and its tables -- are
    byte-identical to an uninterrupted run of the same campaign.
    """
    state = load_journal(journal_path)
    state.check_fingerprint()
    if not state.specs:
        raise JournalError(f"journal {journal_path} carries no cells")
    cache_path = cache_dir if cache_dir is not None else state.cache_dir
    if cache_path is None:
        raise JournalError(
            f"journal {journal_path} records no cache directory; pass cache_dir"
        )
    cache = ResultCache(cache_path)
    journal = CampaignJournal.append_to(journal_path)
    sweep_meta = state.header.get("sweep") or {}
    scale = float(sweep_meta.get("scale", state.specs[0].scale))
    seed = int(
        state.header.get("seed")
        if state.header.get("seed") is not None
        else state.specs[0].seed
    )
    with WallTimer() as wall:
        results, failures, ledger = durable_execute_cells(
            state.specs,
            journal=journal,
            cache=cache,
            jobs=jobs,
            retries=retries,
            policy=policy,
            metrics=metrics,
            telemetry=telemetry,
            resumed_keys=frozenset(state.done),
            handle_signals=handle_signals,
        )
    recovery = ledger.report(
        label=state.label,
        cells_total=len(state.specs),
        cells_completed=len(results),
        wall_s=wall.elapsed_s,
        cache=cache,
    )
    return _assemble_outcome(state.specs, results, failures, scale, seed, recovery)
