"""Tests for the barrier organisations: central counter vs combining tree."""

import pytest

from repro.hardware import CedarConfig, CedarMachine, paper_configuration
from repro.hpm import ActivityBoard, CedarHpm, EventType
from repro.runtime import (
    CedarFortranRuntime,
    LoopConstruct,
    ParallelLoop,
    RuntimeParams,
)
from repro.sim import Simulator
from repro.xylem import XylemKernel, XylemParams

QUIET_OS = XylemParams(
    ctx_interval_ns=10**15,
    ast_interval_ns=10**15,
    sched_interval_ns=10**15,
)


def run_loop(config, rt_params=None, n_loops=3):
    sim = Simulator()
    machine = CedarMachine(sim, config)
    hpm = CedarHpm(sim)
    board = ActivityBoard(sim, config)
    kernel = XylemKernel(sim, config, QUIET_OS, hpm=hpm)
    runtime = CedarFortranRuntime(
        sim, machine, kernel, hpm=hpm, board=board, params=rt_params
    )
    loop = ParallelLoop(
        construct=LoopConstruct.SDOALL,
        n_outer=2 * config.n_clusters,
        n_inner=max(8, 64 // config.n_clusters),
        work_ns_per_iter=100_000,
    )
    proc = runtime.run_program([loop] * n_loops)
    ct = sim.run(until=proc)
    return ct, hpm


def test_runtime_params_validate_fanout():
    with pytest.raises(ValueError):
        RuntimeParams(barrier_fanout=1)
    RuntimeParams(barrier_fanout=2)  # ok
    RuntimeParams(barrier_fanout=None)  # ok


def test_both_organisations_complete_all_loops():
    config = paper_configuration(32)
    for params in (None, RuntimeParams(barrier_fanout=2)):
        ct, hpm = run_loop(config, params)
        types = [e.event_type for e in hpm.offload()]
        assert types.count(EventType.LOOP_DETACH) == 3 * 3  # 3 helpers x 3 loops
        assert types.count(EventType.BARRIER_EXIT) == 3


def _barrier_makespan(n_tasks: int, fanout: int | None) -> int:
    """Makespan of *n_tasks* simultaneous detaches (worst case: a
    statically-balanced loop where every task hits the barrier at
    once)."""
    from repro.runtime.library import _LoopState
    from repro.runtime.loops import ParallelLoop
    from repro.xylem.task import ClusterTask, TaskKind

    config = CedarConfig(n_clusters=max(n_tasks + 1, 2), ces_per_cluster=1)
    sim = Simulator()
    machine = CedarMachine(sim, config)
    kernel = XylemKernel(sim, config, QUIET_OS)
    runtime = CedarFortranRuntime(
        sim, machine, kernel, params=RuntimeParams(barrier_fanout=fanout)
    )
    loop = ParallelLoop(
        construct=LoopConstruct.SDOALL, n_inner=1, work_ns_per_iter=1
    )
    state = _LoopState(sim, loop, seq=0, n_helpers=n_tasks)
    tasks = [
        ClusterTask(task_id=i + 1, cluster_id=i + 1, kind=TaskKind.HELPER)
        for i in range(n_tasks)
    ]
    procs = [
        sim.process(runtime._detach_barrier(state, task)) for task in tasks
    ]
    sim.run(until=sim.all_of(procs))
    return sim.now


def test_flat_barrier_serialises_many_tasks():
    """31 simultaneous detaches: the central counter's lock serialises
    them (hot spot); a combining tree finishes in logarithmic depth."""
    central = _barrier_makespan(31, fanout=None)
    tree = _barrier_makespan(31, fanout=2)
    assert tree < central / 2, f"central {central} ns vs tree {tree} ns"


def test_flat_barrier_scales_linearly_tree_logarithmically():
    central4, central31 = _barrier_makespan(4, None), _barrier_makespan(31, None)
    tree4, tree31 = _barrier_makespan(4, 2), _barrier_makespan(31, 2)
    # Central counter: ~linear in task count.
    assert central31 > 5 * central4
    # Tree: grows far slower than the task count.
    assert tree31 < 4 * tree4


def test_organisation_is_irrelevant_for_few_tasks():
    """With only 3 helpers (4 clusters) the two organisations are
    within a whisker of each other."""
    config = paper_configuration(32)
    central_ct, _ = run_loop(config, RuntimeParams(barrier_fanout=None))
    tree_ct, _ = run_loop(config, RuntimeParams(barrier_fanout=2))
    assert tree_ct == pytest.approx(central_ct, rel=0.05)


def test_combining_tree_single_helper():
    """Degenerate tree: one helper still detaches correctly."""
    config = paper_configuration(16)
    ct, hpm = run_loop(config, RuntimeParams(barrier_fanout=4), n_loops=1)
    types = [e.event_type for e in hpm.offload()]
    assert types.count(EventType.LOOP_DETACH) == 1


def test_analytic_combining_restores_bandwidth():
    from repro.hardware import ContentionModel

    model = ContentionModel(CedarConfig())
    plain = model.hot_spot_bandwidth(32, 0.5, hot_fraction=0.1)
    combined = model.hot_spot_bandwidth(32, 0.5, hot_fraction=0.1, combining=True)
    uniform = model.hot_spot_bandwidth(32, 0.5, hot_fraction=0.0)
    assert combined > plain
    assert combined == pytest.approx(uniform, rel=0.25)
