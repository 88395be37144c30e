"""Completion-time and user-time breakdowns (Figures 3 and 4-9).

Two views, mirroring the paper:

* :func:`ct_breakdown` -- the "Q"-facility view of Section 5: cluster
  time split into user, system, interrupt and kernel-lock spin time.
* :func:`user_breakdown` -- the Section 6 view: the user time of each
  task split into useful work (serial code, main cluster-only loops,
  s(x)doall iteration execution) and parallelization overheads (loop
  setup, iteration pickup, barrier wait, helper busy-wait), computed
  from the cedarhpm traces and the monitor's pickup/iteration summary.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, fields

from repro.core.record import RunResult
from repro.core.trace_analysis import pair_events
from repro.hpm.events import EventType
from repro.runtime.loops import LoopConstruct
from repro.xylem.categories import TimeCategory

__all__ = [
    "MemoryDecomposition",
    "UserTimeBreakdown",
    "ct_breakdown",
    "memory_decomposition",
    "user_breakdown",
    "user_breakdowns",
]

_MC_CONSTRUCTS = {LoopConstruct.CLUSTER_ONLY.value, LoopConstruct.CDOACROSS.value}

#: Task-level trace intervals, by opening event -> component.
_TRACED = {
    EventType.SERIAL_START: "serial_ns",
    EventType.MC_LOOP_START: "mc_loop_ns",
    EventType.SETUP_ENTER: "setup_ns",
    EventType.BARRIER_ENTER: "barrier_ns",
    EventType.WAIT_WORK_ENTER: "helper_wait_ns",
}

#: Per-CE components, averaged over the cluster's CEs.
_PER_CE = ("iter_sdoall_ns", "iter_xdoall_ns", "pickup_xdoall_ns")


def ct_breakdown(result: RunResult, cluster_id: int) -> dict[TimeCategory, int]:
    """Figure-3 breakdown of one cluster's completion time (ns)."""
    return result.accounting.breakdown(cluster_id, result.ct_ns)


@dataclass(frozen=True)
class UserTimeBreakdown:
    """Figure 4's decomposition of one task's time (nanoseconds).

    Below-the-line (useful) components: ``serial_ns``, ``mc_loop_ns``,
    ``iter_sdoall_ns``, ``iter_xdoall_ns``.  Above-the-line
    (parallelization overhead) components: ``setup_ns``,
    ``pickup_sdoall_ns``, ``pickup_xdoall_ns``, ``barrier_ns``,
    ``helper_wait_ns``.  Per-CE quantities (iteration execution and
    xdoall pickup) are averaged over the cluster's CEs so every
    component is commensurable with the task's wall-clock time.
    """

    task_id: int
    wall_ns: int
    serial_ns: float
    mc_loop_ns: float
    iter_sdoall_ns: float
    iter_xdoall_ns: float
    setup_ns: float
    pickup_sdoall_ns: float
    pickup_xdoall_ns: float
    barrier_ns: float
    helper_wait_ns: float

    @property
    def useful_ns(self) -> float:
        """Below-the-line time (serial + mc + iteration execution)."""
        return self.serial_ns + self.mc_loop_ns + self.iter_sdoall_ns + self.iter_xdoall_ns

    @property
    def overhead_ns(self) -> float:
        """Parallelization overhead (above-the-line) time."""
        return (
            self.setup_ns
            + self.pickup_sdoall_ns
            + self.pickup_xdoall_ns
            + self.barrier_ns
            + self.helper_wait_ns
        )

    @property
    def overhead_fraction(self) -> float:
        """Parallelization overhead as a fraction of the task's time."""
        if self.wall_ns == 0:
            return 0.0
        return self.overhead_ns / self.wall_ns

    def fraction(self, component_ns: float) -> float:
        """Any component as a fraction of the task's wall time."""
        if self.wall_ns == 0:
            return 0.0
        return component_ns / self.wall_ns

    def as_dict(self) -> dict[str, float]:
        """Component values by name (for table rendering)."""
        return {
            "serial": self.serial_ns,
            "mc_loop": self.mc_loop_ns,
            "iter_sdoall": self.iter_sdoall_ns,
            "iter_xdoall": self.iter_xdoall_ns,
            "setup": self.setup_ns,
            "pickup_sdoall": self.pickup_sdoall_ns,
            "pickup_xdoall": self.pickup_xdoall_ns,
            "barrier_wait": self.barrier_ns,
            "helper_wait": self.helper_wait_ns,
        }


@dataclass(frozen=True)
class MemoryDecomposition:
    """Section 7's split of global-memory time into ideal and stall.

    All values are simulated nanoseconds summed over every burst a
    cluster's CEs streamed: ``busy_ns`` is the wall time spent
    streaming, ``ideal_ns`` what the same bursts would have taken with
    a single requester, and ``stall_ns`` their difference -- the time
    attributable to network and bank contention.
    """

    busy_ns: list[int]
    ideal_ns: list[int]
    stall_ns: list[int]

    @property
    def total_busy_ns(self) -> int:
        """Machine-wide streaming time."""
        return sum(self.busy_ns)

    @property
    def total_stall_ns(self) -> int:
        """Machine-wide contention stall time."""
        return sum(self.stall_ns)

    @property
    def stall_fraction(self) -> float:
        """Stall time as a fraction of streaming time."""
        if self.total_busy_ns == 0:
            return 0.0
        return self.total_stall_ns / self.total_busy_ns


def memory_decomposition(result: RunResult) -> MemoryDecomposition:
    """Per-cluster busy/ideal/stall split of global-memory streaming.

    Reads the machine's always-on :class:`~repro.hardware.ledger.MemoryLedger`,
    the same source the ``repro.obs`` metrics collector uses for its
    ``memory.cluster*`` series, so the two views agree by construction.
    """
    ledger = result.mem_ledger
    n = result.config.n_clusters
    return MemoryDecomposition(
        busy_ns=list(ledger.busy_ns),
        ideal_ns=list(ledger.ideal_ns),
        stall_ns=[ledger.stall_ns(c) for c in range(n)],
    )


def user_breakdowns(result: RunResult) -> tuple[UserTimeBreakdown, ...]:
    """The Figure 4 breakdown of every task, indexed by task id.

    Task-level intervals pair from the trace, pickup and iteration time
    come from the monitor's summary; each component is summed in integer
    ns and divided once.  An interval still open at the end closes at the
    end's quantised timestamp, as its close would have been recorded, so
    whether a helper's last same-instant wake-up ran before the run
    stopped does not matter.  Cached, and carried by a pickled result.
    """
    cached = result._cache.get("user_breakdowns")
    if cached is None:
        totals: list[Counter[str]] = [Counter() for _ in range(result.config.n_clusters)]
        end_ns = result.ct_ns - result.ct_ns % result.hpm_resolution_ns
        pairs = pair_events(result.events.rows(), end_ns)
        for (etype, start, _, task, _), close_ns in pairs:
            if etype in _TRACED:
                totals[task][_TRACED[etype]] += close_ns - start
        for (task, kind, construct), (_, ns) in result.hpm_summary.items():
            flat = construct == LoopConstruct.XDOALL.value
            if kind == "pickup":
                totals[task]["pickup_xdoall_ns" if flat else "pickup_sdoall_ns"] += ns
            elif construct not in _MC_CONSTRUCTS:  # inside the MC_LOOP interval
                totals[task]["iter_xdoall_ns" if flat else "iter_sdoall_ns"] += ns
        per_ce = result.config.ces_per_cluster
        names = [f.name for f in fields(UserTimeBreakdown)][2:]
        cached = result._cache["user_breakdowns"] = tuple(
            UserTimeBreakdown(
                task,
                result.ct_ns,
                *(parts[n] / (per_ce if n in _PER_CE else 1) for n in names),
            )
            for task, parts in enumerate(totals)
        )
    return cached


def user_breakdown(result: RunResult, task_id: int) -> UserTimeBreakdown:
    """The Figure 4 breakdown of one task of the run."""
    return user_breakdowns(result)[task_id]
