"""The executor's pool route: heartbeating workers, fed longest cell first.

:func:`~repro.parallel.executor.execute_cells` imports this module only
when it starts a pool, so an in-process or fully cached sweep never
loads ``concurrent.futures.process`` or ``multiprocessing``.  The module
imports what a worker runs at its top -- the runner and the simulation
stack, the fault-campaign runner and the span type -- so the workers
fork after it is loaded and inherit it, instead of each importing it
again.
"""

from __future__ import annotations

import os
import signal
import tempfile
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import TYPE_CHECKING

import repro.core.runner  # noqa: F401 - loaded before the fork, for the workers
import repro.faults.campaign  # noqa: F401 - loaded before the fork, for the workers
import repro.obs.campaign  # noqa: F401 - loaded before the fork, for the workers
from repro.apps import resolve_app
from repro.parallel.durable import start_heartbeat, stale_workers
from repro.parallel.executor import _worker
from repro.runtime.loops import ParallelLoop

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.parallel.executor import CellSpec

__all__ = ["Pool", "cost_estimate", "longest_first"]


def cost_estimate(app: str, scale: float) -> int | None:
    """A deterministic rank of a cell's simulation cost, ``None`` if unknown.

    The loop iterations *app* simulates at *scale*: a cell's event
    count, and so its host time, grows with them far more than with P.
    A name the cell's own attempt will reject has no estimate.
    """
    try:
        phases = resolve_app(app)().phases(scale)
    except ValueError:
        return None
    return sum(
        phase.total_iterations for phase in phases if isinstance(phase, ParallelLoop)
    )


def longest_first(specs: list[CellSpec]) -> list[CellSpec]:
    """*specs* in dispatch order: highest :func:`cost_estimate` first.

    Input order breaks ties, and cells without an estimate (scenario
    cells among them) follow the ranked ones in input order.  Results
    are keyed by spec, so the order changes only when each cell
    finishes, never what it returns.
    """
    estimates = {
        key: cost_estimate(*key)
        for key in {(spec.app, spec.scale) for spec in specs if spec.scenario is None}
    }
    costs = [
        (estimates[spec.app, spec.scale] if spec.scenario is None else None, spec)
        for spec in specs
    ]
    ranked = [(cost, spec) for cost, spec in costs if cost is not None]
    ranked.sort(key=lambda pair: -pair[0])
    return [spec for _, spec in ranked] + [spec for cost, spec in costs if cost is None]


def _init_worker(hb_dir: str, interval_s: float) -> None:
    """Pool initializer: ignore SIGINT, start the heartbeat thread.

    SIGINT belongs to the coordinator (it checkpoints); a worker that
    dies of the operator's ^C would just be one more death to recover
    from, so it is ignored here.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    start_heartbeat(os.path.join(hb_dir, f"hb-{os.getpid()}"), interval_s)


class Pool:
    """The pool route: heartbeating workers the coordinator can kill."""

    def __init__(self, jobs: int, heartbeat_interval_s: float) -> None:
        self.jobs = jobs
        self.interval_s = heartbeat_interval_s
        self.hb_dir = tempfile.mkdtemp(prefix="cedar-hb-")
        self.executor: ProcessPoolExecutor | None = None
        self.respawn()

    def submit(self, payload: tuple) -> Future | None:
        """Dispatch one attempt; ``None`` if the pool broke since the last poll."""
        assert self.executor is not None
        try:
            return self.executor.submit(_worker, payload)
        except BrokenProcessPool:
            return None

    def stale(self, now_s: float, timeout_s: float) -> list[int]:
        return stale_workers(self.hb_dir, now_s, timeout_s)

    def kill(self) -> None:
        """Tear the pool down: cancel queued work, SIGKILL every worker."""
        if self.executor is not None:
            self.executor.shutdown(wait=False, cancel_futures=True)
        for entry in Path(self.hb_dir).glob("hb-*"):
            try:
                os.kill(int(entry.name.split("-", 1)[1]), signal.SIGKILL)
            except (IndexError, ValueError, OSError):
                pass
            try:
                entry.unlink()
            except OSError:
                pass

    def respawn(self) -> None:
        self.kill()
        self.executor = ProcessPoolExecutor(
            max_workers=self.jobs,
            initializer=_init_worker,
            initargs=(self.hb_dir, self.interval_s),
        )

    def close(self) -> None:
        self.kill()
        try:
            os.rmdir(self.hb_dir)
        except OSError:
            pass
