"""Recovery policy, health sensing and accounting for the sweep executor.

:func:`~repro.parallel.executor.execute_cells` assumes the host does
not behave.  This module holds the pieces it recovers with:

* :class:`DurablePolicy` -- the tunables: heartbeat cadence and
  timeout, the optional per-cell deadline, deterministic backoff
  (:func:`backoff_s`: jitter-free by construction, so retry schedules
  are reproducible) and straggler speculation thresholds.
* **Worker health** -- pool workers stamp per-PID heartbeat files
  (:func:`start_heartbeat`); :func:`stale_workers` tells the
  coordinator which ones stalled, so it can SIGKILL them, respawn the
  pool and reschedule their cells.
* :class:`RecoveryLedger` -- everything the executor did to keep a
  campaign alive (retries, respawns, deaths, deadline kills,
  speculation, checkpoints, destroyed work), which renders the
  ``cedar-repro/recovery-report/v1`` JSON.
* :class:`CampaignInterrupted` -- raised after SIGINT/SIGTERM
  checkpointed a journaled campaign; ``cedar-repro resume`` continues
  it (:func:`~repro.core.resilience.resume_sweep`).

Everything the executor does to *recover* is also narrated through the
campaign telemetry seam (``recovery`` events in the JSONL log).  The
recovered campaign's tables are byte-identical to an uninterrupted
run: that is the acceptance gate ``scripts/chaos_sweep.py`` enforces.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.obs.hostclock import host_clock_s
from repro.parallel.cache import code_fingerprint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.registry import MetricsRegistry
    from repro.parallel.cache import ResultCache

__all__ = [
    "RECOVERY_REPORT_SCHEMA",
    "CampaignInterrupted",
    "DurablePolicy",
    "RecoveryLedger",
    "backoff_s",
    "save_recovery_report",
    "stale_workers",
    "start_heartbeat",
]

RECOVERY_REPORT_SCHEMA = "cedar-repro/recovery-report/v1"


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
    #: Exponential backoff parameters for retries.
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
    """Everything the executor did to keep a campaign alive."""

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


# -- worker health ----------------------------------------------------------


def _heartbeat_loop(path: str, interval_s: float) -> None:
    """Stamp one worker's liveness file forever.

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


def start_heartbeat(path: str, interval_s: float) -> None:
    """Start a daemon thread stamping *path* every *interval_s* seconds."""
    threading.Thread(
        target=_heartbeat_loop, args=(path, interval_s), daemon=True
    ).start()


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
