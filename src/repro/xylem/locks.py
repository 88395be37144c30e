"""Kernel locks and critical sections.

Xylem protects critical sections/resources with memory locks: *cluster*
locks live in private cluster memory (shared by the cluster's CEs and
IPs) and *global* locks in shared global memory (shared by all CEs).
Time spent waiting for these locks is the paper's kernel-lock *spin*
time, which the measurements show to be negligible (< 1 % of completion
time); in the model the spin time likewise *emerges* from actual lock
contention rather than being injected.
"""

from __future__ import annotations

from collections.abc import Generator

from repro.sim.core import Simulator
from repro.sim.resources import Resource
from repro.xylem.accounting import TimeAccounting
from repro.xylem.categories import OsActivity

__all__ = ["KernelLock", "CriticalSections"]


class KernelLock:
    """A kernel memory lock with spin-time accounting."""

    def __init__(self, sim: Simulator, accounting: TimeAccounting, name: str) -> None:
        self.sim = sim
        self.accounting = accounting
        self.name = name
        self._resource = Resource(sim, capacity=1)
        self.acquisitions = 0
        self.contended_acquisitions = 0

    def held(self) -> bool:
        """Whether the lock is currently held."""
        return self._resource.count > 0

    def critical_section(self, cluster_id: int, hold_ns: int) -> Generator:
        """Process: acquire, hold for *hold_ns*, release.

        Waiting time (if the lock is busy) is charged to the waiter's
        cluster as kernel-lock spin; the hold time itself is charged by
        the caller under the appropriate activity.
        """
        wait_start = self.sim.now
        contended = self._resource.count > 0
        request = self._resource.request()
        yield request
        spin_ns = self.sim.now - wait_start
        if spin_ns > 0:
            self.accounting.charge_kspin(cluster_id, spin_ns)
        self.acquisitions += 1
        if contended:
            self.contended_acquisitions += 1
        try:
            yield hold_ns
        finally:
            self._resource.release(request)


class CriticalSections:
    """The kernel's critical-section/resource locks.

    One cluster lock per cluster (protecting cluster resources: IP and
    single-cluster CE structures) plus one global lock (protecting
    resources shared by all CEs), as described in Section 5.
    """

    def __init__(
        self,
        sim: Simulator,
        accounting: TimeAccounting,
        n_clusters: int,
    ) -> None:
        self.sim = sim
        self.accounting = accounting
        self.cluster_locks = [
            KernelLock(sim, accounting, name=f"cluster-{i}") for i in range(n_clusters)
        ]
        self.global_lock = KernelLock(sim, accounting, name="global")
        #: Hold-time inflation factor (fault injection: a slow kernel
        #: path stretches every critical section, so kspin emerges from
        #: the longer holds rather than being charged directly).
        self.hold_factor = 1.0

    def set_hold_factor(self, factor: float) -> None:
        """Inflate (or restore, with 1.0) critical-section hold times."""
        if factor <= 0.0:
            raise ValueError(f"factor must be > 0, got {factor}")
        self.hold_factor = factor

    def _effective_hold_ns(self, hold_ns: int) -> int:
        if self.hold_factor == 1.0:
            return hold_ns
        return int(round(hold_ns * self.hold_factor))

    def access_cluster(self, cluster_id: int, hold_ns: int) -> Generator:
        """Process: one cluster critical-section access; charges SYSTEM."""
        hold = self._effective_hold_ns(hold_ns)
        yield from self.cluster_locks[cluster_id].critical_section(cluster_id, hold)
        self.accounting.charge(cluster_id, OsActivity.CRSECT_CLUSTER, hold)

    def access_global(self, cluster_id: int, hold_ns: int) -> Generator:
        """Process: one global critical-section access; charges SYSTEM."""
        hold = self._effective_hold_ns(hold_ns)
        yield from self.global_lock.critical_section(cluster_id, hold)
        self.accounting.charge(cluster_id, OsActivity.CRSECT_GLOBAL, hold)
