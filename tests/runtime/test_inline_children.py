"""Strictly-sequential children run inline on every path.

A child its caller awaits at once -- process creation, a page touch or
page sweep, a critical section, a CPI gather, a context switch, a system
call, a memory burst, an execute slice -- runs by ``yield from`` whatever
``CEDAR_REPRO_FASTPATH`` says.  So the kill switch starts no process for
one, and it moves neither the completion time nor the Xylem time
accounting.
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


def test_kill_switch_spawns_no_sequential_child(monkeypatch):
    monkeypatch.delenv("CEDAR_REPRO_FASTPATH", raising=False)
    default, _ = _run()
    monkeypatch.setenv("CEDAR_REPRO_FASTPATH", "off")
    exact, profiler = _run()

    started = {record.key for record in profiler.records.values() if record.spawns}
    assert not started & FORMER_CHILD_NAMES
    assert exact.fastpath_modes == {"statfx": "exact"}

    # Not vacuous: every kind of child ran.
    stats = exact.fault_stats
    assert stats.sequential > 0 and stats.concurrent > 0
    assert "vm-cpi" in started
    totals = {name: sum(per_cluster) for name, per_cluster in _accounting(exact).items()}
    for activity in ("CTX", "CPI", "CRSECT_CLUSTER", "SYSCALL_CLUSTER", "PGFLT_CONCURRENT"):
        assert totals[activity] > 0, activity

    assert exact.ct_ns == default.ct_ns
    assert _accounting(exact) == _accounting(default)
