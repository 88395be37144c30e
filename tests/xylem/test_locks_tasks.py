"""Unit tests for kernel locks, critical sections and Xylem tasks."""

import pytest

from repro.hardware import paper_configuration
from repro.sim import Simulator
from repro.xylem import (
    CriticalSections,
    OsActivity,
    TimeAccounting,
    TimeCategory,
    XylemKernel,
    XylemParams,
    XylemProcess,
    create_process,
)
from repro.xylem.locks import KernelLock
from repro.xylem.task import ClusterTask, TaskKind


def make_cs(n_proc=32):
    sim = Simulator()
    config = paper_configuration(n_proc)
    accounting = TimeAccounting(config)
    cs = CriticalSections(sim, accounting, config.n_clusters)
    return sim, cs, accounting


def test_uncontended_lock_has_no_spin():
    sim, cs, accounting = make_cs()
    proc = sim.process(cs.access_cluster(0, hold_ns=100))
    sim.run(until=proc)
    assert accounting.category_ns(0, TimeCategory.KSPIN) == 0
    assert accounting.activity_ns(0, OsActivity.CRSECT_CLUSTER) == 100


def test_contended_lock_accrues_spin():
    sim, cs, accounting = make_cs()
    procs = [
        sim.process(cs.access_cluster(0, hold_ns=100)),
        sim.process(cs.access_cluster(0, hold_ns=100)),
    ]
    sim.run(until=sim.all_of(procs))
    # The second accessor spun for the first one's hold time.
    assert accounting.category_ns(0, TimeCategory.KSPIN) == 100
    lock = cs.cluster_locks[0]
    assert lock.acquisitions == 2
    assert lock.contended_acquisitions == 1


def test_cluster_locks_are_independent():
    sim, cs, accounting = make_cs()
    procs = [
        sim.process(cs.access_cluster(0, hold_ns=100)),
        sim.process(cs.access_cluster(1, hold_ns=100)),
    ]
    sim.run(until=sim.all_of(procs))
    assert sim.now == 100
    assert accounting.category_ns(0, TimeCategory.KSPIN) == 0


def test_global_lock_shared_across_clusters():
    sim, cs, accounting = make_cs()
    procs = [
        sim.process(cs.access_global(0, hold_ns=100)),
        sim.process(cs.access_global(2, hold_ns=100)),
    ]
    sim.run(until=sim.all_of(procs))
    assert sim.now == 200
    # Spin charged to the waiter's cluster.
    total_spin = sum(accounting.category_ns(c, TimeCategory.KSPIN) for c in range(4))
    assert total_spin == 100


def test_kernel_lock_held_flag():
    sim = Simulator()
    accounting = TimeAccounting(paper_configuration(8))
    lock = KernelLock(sim, accounting, "test")
    assert not lock.held()

    def holder(sim):
        yield sim.process(lock.critical_section(0, hold_ns=10))

    sim.run(until=sim.process(holder(sim)))
    assert not lock.held()


def test_cluster_task_names():
    main = ClusterTask(0, 0, TaskKind.MAIN)
    helper = ClusterTask(2, 2, TaskKind.HELPER)
    assert main.name == "Main"
    assert main.is_main
    assert helper.name == "helper2"
    assert not helper.is_main


def test_xylem_process_requires_main_first():
    with pytest.raises(ValueError):
        XylemProcess([ClusterTask(1, 1, TaskKind.HELPER)])
    with pytest.raises(ValueError):
        XylemProcess([])


def test_xylem_process_task_lookup():
    tasks = [
        ClusterTask(0, 0, TaskKind.MAIN),
        ClusterTask(1, 1, TaskKind.HELPER),
    ]
    process = XylemProcess(tasks)
    assert process.main_task.cluster_id == 0
    assert process.helper_tasks == tasks[1:]
    assert process.task_on_cluster(1).task_id == 1
    with pytest.raises(KeyError):
        process.task_on_cluster(3)


def test_create_process_makes_one_helper_per_extra_cluster():
    sim = Simulator()
    config = paper_configuration(32)
    kernel = XylemKernel(sim, config)
    proc = sim.process(create_process(config, kernel))
    process = sim.run(until=proc)
    assert len(process.tasks) == 4
    assert len(process.helper_tasks) == 3
    # Task creation used global syscalls, charged to the master cluster.
    assert kernel.accounting.activity_ns(0, OsActivity.SYSCALL_GLOBAL) > 0


def test_create_process_single_cluster_has_no_helpers():
    sim = Simulator()
    config = paper_configuration(8)
    kernel = XylemKernel(sim, config)
    proc = sim.process(create_process(config, kernel))
    process = sim.run(until=proc)
    assert process.helper_tasks == []
    assert kernel.accounting.activity_ns(0, OsActivity.SYSCALL_GLOBAL) == 0
