"""The machine's global-memory ledger, a plain record.

:class:`MemoryLedger` lives apart from :mod:`repro.hardware.machine` so
that a result record that carries one unpickles without loading the
machine model.
"""

from __future__ import annotations

__all__ = ["MemoryLedger"]


class MemoryLedger:
    """Always-on counters of analytic-path global-memory activity.

    Filled in by :meth:`~repro.hardware.machine.CedarMachine.memory_burst`
    and :meth:`~repro.hardware.machine.CedarMachine.global_round_trip_ns`;
    read by the ``repro.obs``
    metrics collector and by :func:`repro.core.breakdown.memory_decomposition`,
    so the registry's ``memory.*`` figures and the breakdown's
    contention decomposition come from one ledger and stay consistent.
    """

    __slots__ = (
        "busy_ns",
        "ideal_ns",
        "bursts",
        "words",
        "scalar_round_trips",
        "scalar_round_trip_ns",
    )

    def __init__(self, n_clusters: int) -> None:
        #: Per-cluster wall time CEs spent streaming global memory.
        self.busy_ns = [0] * n_clusters
        #: Per-cluster time the same bursts would take uncontended.
        self.ideal_ns = [0] * n_clusters
        #: Per-cluster burst and word counts.
        self.bursts = [0] * n_clusters
        self.words = [0] * n_clusters
        #: Scalar (synchronisation) round trips priced machine-wide.
        self.scalar_round_trips = 0
        self.scalar_round_trip_ns = 0

    def stall_ns(self, cluster_id: int) -> int:
        """Contention stall on one cluster: busy minus ideal time."""
        return max(0, self.busy_ns[cluster_id] - self.ideal_ns[cluster_id])

    @property
    def total_busy_ns(self) -> int:
        """Machine-wide burst busy time."""
        return sum(self.busy_ns)

    @property
    def total_stall_ns(self) -> int:
        """Machine-wide contention stall time."""
        return sum(self.stall_ns(c) for c in range(len(self.busy_ns)))
