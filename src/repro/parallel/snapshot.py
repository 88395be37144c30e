"""Detached, picklable snapshots of finished runs.

A live :class:`~repro.core.runner.RunResult` drags the whole simulation
stack behind it -- the simulator (with generator frames), the machine,
the Xylem kernel -- none of which can cross a process boundary or be
written to the result cache.  :func:`snapshot_result` rebuilds the same
``RunResult`` shape out of small frozen *view* objects that quack
exactly like the live classes for everything the analysis layer and the
``repro.obs`` metric collectors read after a run:

* ``result.accounting`` / ``result.fault_stats`` -- plain data,
  deep-copied verbatim;
* ``result.events`` -- the run's own
  :class:`~repro.hpm.events.EventList`, not copied: the monitor
  recorded it as columns, and it pickles as those columns narrowed,
  the one encoding for both places a result crosses a process
  boundary, the pool's result transport and the result cache.  The
  pickled snapshot carries its Tables 3-4 loop index and every task's
  Figures 5-9 breakdown, so a served result answers those without
  reading its events.
  ``result.events is result.hpm.events`` holds before and after a
  round trip;
* ``result.statfx`` / ``result.board`` -- concurrency queries answered
  from values frozen at end-of-run simulated time;
* ``result.machine`` -- the memory ledger, the streaming-load tracker
  and the per-cluster CC buses;
* ``result.kernel`` -- OS parameters, critical-section lock counters
  and the VM fault counters;
* ``result.runtime`` / ``result.hpm`` -- protocol counters and the
  monitor's resolution, trace buffer and pickup/iteration summary.

The contract -- enforced by ``tests/parallel/test_snapshot.py`` -- is
that every table/figure function and :func:`repro.obs.instrument.
collect_run_metrics` produce identical output from the snapshot and
from the live result.

The same contract is what makes campaign telemetry free of side
channels: a pool worker collects its metrics from the *snapshot*-bound
``Observability`` registry and ships them inside a
:class:`~repro.obs.campaign.CellSpan` *beside* the result, so the
snapshot the coordinator caches and tabulates is byte-identical whether
telemetry was on or off.  ``wall_s``, ``schedule_hash`` and
``kernel_stats`` ride on the snapshot itself, and are the only fields
the span reads back out of it.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.runner import RunResult
from repro.hpm.events import EventList

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.xylem.locks import KernelLock
    from repro.xylem.params import XylemParams

__all__ = ["snapshot_result", "is_snapshot"]


@dataclass(frozen=True)
class StatfxView:
    """Frozen answers to the sampler's post-run concurrency queries."""

    samples: int
    sums: tuple[int, ...]
    interval_ns: int

    def cluster_concurrency(self, cluster_id: int) -> float:
        """Sampled average concurrency on one cluster."""
        if self.samples == 0:
            return 0.0
        return self.sums[cluster_id] / self.samples

    def total_concurrency(self) -> float:
        """Sum of per-cluster average concurrencies (the paper's value)."""
        return sum(self.cluster_concurrency(c) for c in range(len(self.sums)))


@dataclass(frozen=True)
class BoardView:
    """Frozen activity-board state at end-of-run simulated time."""

    busy: tuple[int, ...]
    now_ns: int
    ces_per_cluster: int

    def busy_ns(self, ce_id: int) -> int:
        """Total active time of a CE over the run."""
        return self.busy[ce_id]

    def mean_concurrency(self, cluster_id: int | None = None) -> float:
        """Exact time-weighted average active-CE count."""
        if self.now_ns == 0:
            return 0.0
        if cluster_id is None:
            total = sum(self.busy)
        else:
            per = self.ces_per_cluster
            total = sum(self.busy[cluster_id * per : (cluster_id + 1) * per])
        return total / self.now_ns


@dataclass(frozen=True)
class LoadView:
    """Frozen streaming-CE load-tracker statistics."""

    high_water: int
    cluster_high_water: tuple[int, ...]
    weighted_mean: float

    def time_weighted_mean(self) -> float:
        """Average number of streaming CEs over the run."""
        return self.weighted_mean


@dataclass(frozen=True)
class CCBusView:
    """Frozen per-cluster concurrency-control bus counters."""

    dispatches: int
    synchronisations: int


@dataclass(frozen=True)
class ClusterView:
    """One cluster's post-run counters (currently just the CC bus)."""

    cluster_id: int
    ccbus: CCBusView


@dataclass(frozen=True)
class MachineView:
    """Stand-in for :class:`~repro.hardware.machine.CedarMachine`."""

    mem_ledger: object  # MemoryLedger (plain slots, picklable)
    load: LoadView
    clusters: tuple[ClusterView, ...]


@dataclass(frozen=True)
class LockView:
    """Frozen kernel-lock acquisition counters."""

    name: str
    acquisitions: int
    contended_acquisitions: int


@dataclass(frozen=True)
class CriticalSectionsView:
    """Frozen critical-section lock counters."""

    global_lock: LockView
    cluster_locks: tuple[LockView, ...]
    hold_factor: float


@dataclass(frozen=True)
class VmView:
    """Stand-in for the kernel's VM subsystem (fault counters only)."""

    stats: object  # FaultStats


@dataclass(frozen=True)
class KernelView:
    """Stand-in for :class:`~repro.xylem.kernel.XylemKernel`."""

    params: "XylemParams"
    critical_sections: CriticalSectionsView
    accounting: object  # the same TimeAccounting copy the result holds
    vm: VmView


@dataclass(frozen=True)
class RuntimeView:
    """Stand-in for the Fortran runtime (protocol counters only)."""

    stats: object  # RuntimeStats


@dataclass
class HpmView:
    """Stand-in for the cedarhpm monitor's post-run buffer state."""

    resolution_ns: int
    events: EventList = field(default_factory=EventList, repr=False)
    summary: dict = field(default_factory=dict, repr=False)

    def offload(self) -> EventList:
        """The retained event buffer (already off-loaded at snapshot)."""
        return self.events


def _lock_view(lock: KernelLock) -> LockView:
    return LockView(
        name=lock.name,
        acquisitions=lock.acquisitions,
        contended_acquisitions=lock.contended_acquisitions,
    )


def _machine_view(result: RunResult) -> MachineView:
    machine = result.machine
    load = machine.load
    return MachineView(
        mem_ledger=copy.deepcopy(machine.mem_ledger),
        load=LoadView(
            high_water=load.high_water,
            cluster_high_water=tuple(load.cluster_high_water),
            weighted_mean=load.time_weighted_mean(),
        ),
        clusters=tuple(
            ClusterView(
                cluster_id=cluster.cluster_id,
                ccbus=CCBusView(
                    dispatches=cluster.ccbus.dispatches,
                    synchronisations=cluster.ccbus.synchronisations,
                ),
            )
            for cluster in machine.clusters
        ),
    )


def is_snapshot(result: RunResult) -> bool:
    """Whether *result* is a detached snapshot rather than a live run."""
    return isinstance(result.machine, MachineView)


def snapshot_result(result: RunResult) -> RunResult:
    """Detach *result* from the live simulation stack.

    Returns a new :class:`RunResult` carrying only plain data and view
    objects: safe to pickle across a process pool, store in the result
    cache, and feed to every table/figure/metrics consumer.
    Snapshotting a snapshot returns it unchanged.
    """
    if is_snapshot(result):
        return result
    accounting = copy.deepcopy(result.accounting)
    fault_stats = copy.deepcopy(result.fault_stats)
    sections = result.kernel.critical_sections
    statfx = result.statfx
    board = result.board
    events = result.events
    hpm = result.hpm
    return RunResult(
        app_name=result.app_name,
        config=result.config,
        scale=result.scale,
        extrapolation=result.extrapolation,
        ct_ns=result.ct_ns,
        events=events,
        accounting=accounting,
        fault_stats=fault_stats,
        statfx=StatfxView(
            samples=statfx.samples,
            sums=tuple(statfx._sums),
            interval_ns=statfx.interval_ns,
        ),
        board=BoardView(
            busy=tuple(
                board.busy_ns(ce) for ce in range(result.config.n_processors)
            ),
            now_ns=board.sim.now,
            ces_per_cluster=result.config.ces_per_cluster,
        ),
        machine=_machine_view(result),
        kernel=KernelView(
            params=result.kernel.params,
            critical_sections=CriticalSectionsView(
                global_lock=_lock_view(sections.global_lock),
                cluster_locks=tuple(
                    _lock_view(lock) for lock in sections.cluster_locks
                ),
                hold_factor=sections.hold_factor,
            ),
            accounting=accounting,
            vm=VmView(stats=fault_stats),
        ),
        runtime=RuntimeView(stats=copy.deepcopy(result.runtime.stats)),
        hpm=HpmView(hpm.resolution_ns, events, hpm.summary),
        wall_s=result.wall_s,
        schedule_hash=result.schedule_hash,
        kernel_stats=dict(result.kernel_stats),
    )
