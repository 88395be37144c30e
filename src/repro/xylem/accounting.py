"""Per-cluster time accounting (the model's "Q" measurement facility).

The paper obtains the Figure 3 breakdown with a software facility "Q"
that monitors the utilisation of each cluster, classifying time into
user, system, interrupt and kernel-lock spin time (Section 5), and the
Table 2 detail from the instrumented OS routines.  In the model, every
OS activity debits its cost here as it happens, so both views come from
the same ledger.  :class:`FaultStats`, the virtual memory's page-fault
counters, lives here too: both are plain records a run's result
carries, so unpickling one loads no simulator code.
"""

from __future__ import annotations

from repro.hardware.config import CedarConfig
from repro.xylem.categories import OsActivity, TimeCategory, activity_category

__all__ = ["FaultStats", "TimeAccounting"]


class TimeAccounting:
    """Ledger of OS time per cluster, by detailed activity.

    User time is not debited directly: following the paper's Q facility
    it is whatever part of the cluster's wall-clock time was *not*
    spent in system/interrupt/kspin work (user code, user-level spins
    and barrier waits all count as user time).
    """

    def __init__(self, config: CedarConfig) -> None:
        self.config = config
        self._activity_ns = [
            {activity: 0 for activity in OsActivity} for _ in range(config.n_clusters)
        ]
        self._kspin_ns = [0] * config.n_clusters
        self._activity_counts = [
            {activity: 0 for activity in OsActivity} for _ in range(config.n_clusters)
        ]

    # -- debits -----------------------------------------------------------

    def charge(self, cluster_id: int, activity: OsActivity, ns: int, events: int = 1) -> None:
        """Debit *ns* of OS time for *activity* on *cluster_id*."""
        if ns < 0:
            raise ValueError(f"cannot charge negative time {ns}")
        self._activity_ns[cluster_id][activity] += ns
        self._activity_counts[cluster_id][activity] += events

    def charge_kspin(self, cluster_id: int, ns: int) -> None:
        """Debit kernel-lock spin (waiting) time on *cluster_id*."""
        if ns < 0:
            raise ValueError(f"cannot charge negative time {ns}")
        self._kspin_ns[cluster_id] += ns

    # -- queries ------------------------------------------------------------

    def activity_ns(self, cluster_id: int, activity: OsActivity) -> int:
        """Total time of one activity on one cluster."""
        return self._activity_ns[cluster_id][activity]

    def activity_count(self, cluster_id: int, activity: OsActivity) -> int:
        """Number of occurrences of one activity on one cluster."""
        return self._activity_counts[cluster_id][activity]

    def activity_total_ns(self, activity: OsActivity) -> int:
        """Total time of one activity over all clusters."""
        return sum(ledger[activity] for ledger in self._activity_ns)

    def category_ns(self, cluster_id: int, category: TimeCategory) -> int:
        """Coarse-category total (SYSTEM / INTERRUPT / KSPIN) on a cluster.

        ``USER`` cannot be derived from the ledger alone; use
        :meth:`breakdown` with the cluster's wall-clock time.
        """
        if category is TimeCategory.USER:
            raise ValueError("user time is wall-clock minus OS time; use breakdown()")
        if category is TimeCategory.KSPIN:
            return self._kspin_ns[cluster_id]
        return sum(
            ns
            for activity, ns in self._activity_ns[cluster_id].items()
            if activity_category(activity) is category
        )

    def os_total_ns(self, cluster_id: int) -> int:
        """All OS time (system + interrupt + kspin) on a cluster."""
        return (
            self.category_ns(cluster_id, TimeCategory.SYSTEM)
            + self.category_ns(cluster_id, TimeCategory.INTERRUPT)
            + self.category_ns(cluster_id, TimeCategory.KSPIN)
        )

    def breakdown(self, cluster_id: int, wall_ns: int) -> dict[TimeCategory, int]:
        """Figure-3-style breakdown of *wall_ns* on one cluster."""
        system = self.category_ns(cluster_id, TimeCategory.SYSTEM)
        interrupt = self.category_ns(cluster_id, TimeCategory.INTERRUPT)
        kspin = self.category_ns(cluster_id, TimeCategory.KSPIN)
        user = wall_ns - system - interrupt - kspin
        if user < 0:
            raise ValueError(
                f"OS time ({system + interrupt + kspin}) exceeds wall time ({wall_ns}) "
                f"on cluster {cluster_id}"
            )
        return {
            TimeCategory.USER: user,
            TimeCategory.SYSTEM: system,
            TimeCategory.INTERRUPT: interrupt,
            TimeCategory.KSPIN: kspin,
        }

    def table2_ns(self) -> dict[OsActivity, int]:
        """Machine-wide per-activity totals (the Table 2 rows)."""
        return {activity: self.activity_total_ns(activity) for activity in OsActivity}


class FaultStats:
    """Counters of fault activity."""

    __slots__ = ("sequential", "concurrent", "joined", "evictions")

    def __init__(self) -> None:
        self.sequential = 0
        self.concurrent = 0
        self.joined = 0
        self.evictions = 0
