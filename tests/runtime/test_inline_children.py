"""Strictly-sequential children run inline.

A child its caller awaits at once -- process creation, a page touch or
page sweep, a critical section, a CPI gather, a context switch, a system
call, a memory burst, an execute slice -- runs by ``yield from``, so a
run starts no process for one.
"""

from __future__ import annotations

from repro.core.runner import run_phases
from repro.obs import Observability
from repro.runtime.loops import LoopConstruct, ParallelLoop, SerialPhase
from repro.xylem.categories import OsActivity
from repro.xylem.params import XylemParams

#: Names the sequential children once ran under as processes: the OS
#: layer named its own, the runtime's took their generator's name.
FORMER_CHILD_NAMES = {
    "create-process",
    "task-create",
    "vm-touch",
    "vm-crsect",
    "crsect-clus",
    "crsect-glbl",
    "vm-cpi-gather",
    "ctx",
    "ctx-cpi",
    "ctx-crsect",
    "sched-cpi",
    "sched-crsect",
    "sched-gcrsect",
    "syscall-cpi",
    "gsc-crsect",
    "cluster_syscall",
    "touch_many",
    "touch",
    "memory_burst",
    "execute",
}

#: Daemons frequent enough to fire inside the short workload, and a CPI
#: gather on every concurrent page fault.
OS_PARAMS = XylemParams(
    ctx_interval_ns=2_000_000,
    sched_interval_ns=500_000,
    pgflt_cpi_fraction=1.0,
    syscall_cpi_fraction=0.5,
)


def _workload():
    return [
        SerialPhase(work_ns=200_000, mem_words=64, page_base=5000, n_pages=4, syscalls=6),
        ParallelLoop(
            construct=LoopConstruct.SDOALL,
            n_outer=4,
            n_inner=16,
            work_ns_per_iter=20_000,
            mem_words_per_iter=8,
            page_base=0,
            iters_per_page=4,
        ),
        ParallelLoop(
            construct=LoopConstruct.XDOALL,
            n_inner=64,
            work_ns_per_iter=20_000,
            mem_words_per_iter=8,
            page_base=1000,
            iters_per_page=8,
        ),
    ]


def _run():
    obs = Observability(profile=True)
    result = run_phases(_workload(), 32, os_params=OS_PARAMS, obs=obs)
    return result, obs.profiler


def _accounting(result) -> dict:
    acct = result.accounting
    return {
        activity.name: [acct.activity_ns(c, activity) for c in range(result.config.n_clusters)]
        for activity in OsActivity
    }


def test_default_run_spawns_no_sequential_child():
    result, profiler = _run()

    started = {record.key for record in profiler.records.values() if record.spawns}
    assert not started & FORMER_CHILD_NAMES

    # Not vacuous: every kind of child ran.
    stats = result.fault_stats
    assert stats.sequential > 0 and stats.concurrent > 0
    assert "vm-cpi" in started
    totals = {name: sum(per_cluster) for name, per_cluster in _accounting(result).items()}
    for activity in ("CTX", "CPI", "CRSECT_CLUSTER", "SYSCALL_CLUSTER", "PGFLT_CONCURRENT"):
        assert totals[activity] > 0, activity
