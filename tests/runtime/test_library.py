"""Integration-grade unit tests for the runtime library protocol."""

import pytest

from repro.hardware import CedarMachine, paper_configuration
from repro.hpm import ActivityBoard, CedarHpm, EventType
from repro.runtime import (
    CedarFortranRuntime,
    LoopConstruct,
    ParallelLoop,
    SerialPhase,
)
from repro.sim import Simulator
from repro.xylem import XylemKernel, XylemParams


QUIET_OS = XylemParams(
    ctx_interval_ns=10**15,  # effectively no daemons
    ast_interval_ns=10**15,
    sched_interval_ns=10**15,
)


def make_runtime(n_proc=32, os_params=QUIET_OS):
    sim = Simulator()
    config = paper_configuration(n_proc)
    machine = CedarMachine(sim, config)
    hpm = CedarHpm(sim, iteration_events=True)
    board = ActivityBoard(sim, config)
    kernel = XylemKernel(sim, config, os_params, hpm=hpm)
    runtime = CedarFortranRuntime(sim, machine, kernel, hpm=hpm, board=board)
    return sim, runtime


def run(sim, runtime, phases):
    proc = runtime.run_program(phases)
    return sim.run(until=proc)


def event_types(runtime):
    return [e.event_type for e in runtime.hpm.offload()]


def test_empty_program_completes():
    sim, runtime = make_runtime(8)
    ct = run(sim, runtime, [])
    assert ct >= 0
    types = event_types(runtime)
    assert EventType.PROGRAM_START in types
    assert EventType.PROGRAM_END in types


def test_serial_phase_executes_for_its_duration():
    sim, runtime = make_runtime(8)
    ct = run(sim, runtime, [SerialPhase(work_ns=1_000_000)])
    assert ct >= 1_000_000


def test_serial_records_events():
    sim, runtime = make_runtime(8)
    run(sim, runtime, [SerialPhase(work_ns=1000, label="init")])
    types = event_types(runtime)
    assert EventType.SERIAL_START in types
    assert EventType.SERIAL_END in types


def test_serial_syscalls_accounted():
    from repro.xylem import OsActivity

    sim, runtime = make_runtime(8)
    run(sim, runtime, [SerialPhase(work_ns=0, syscalls=3)])
    accounting = runtime.kernel.accounting
    assert accounting.activity_count(0, OsActivity.SYSCALL_CLUSTER) == 3


def test_sdoall_executes_all_iterations():
    sim, runtime = make_runtime(32)
    loop = ParallelLoop(
        construct=LoopConstruct.SDOALL,
        n_outer=8,
        n_inner=32,
        work_ns_per_iter=10_000,
    )
    run(sim, runtime, [loop])
    events = runtime.hpm.offload()
    iter_starts = [e for e in events if e.event_type == EventType.ITER_START]
    executed = sum(e.payload[3] for e in iter_starts)
    assert executed == loop.total_iterations


def test_xdoall_executes_all_iterations():
    sim, runtime = make_runtime(32)
    loop = ParallelLoop(
        construct=LoopConstruct.XDOALL,
        n_inner=100,
        work_ns_per_iter=10_000,
    )
    run(sim, runtime, [loop])
    events = runtime.hpm.offload()
    iter_starts = [e for e in events if e.event_type == EventType.ITER_START]
    assert len(iter_starts) == 100


def test_xdoall_iterations_unique():
    """No iteration is executed twice despite 32 competing CEs."""
    sim, runtime = make_runtime(32)
    loop = ParallelLoop(construct=LoopConstruct.XDOALL, n_inner=64, work_ns_per_iter=5000)
    run(sim, runtime, [loop])
    # PICKUP events: one successful pickup per iteration plus one
    # "no more work" pickup per CE.
    pickups = [
        e for e in runtime.hpm.offload() if e.event_type == EventType.PICKUP_EXIT
    ]
    assert len(pickups) == 64 + 32


def test_helpers_join_spread_loops():
    sim, runtime = make_runtime(32)
    loop = ParallelLoop(
        construct=LoopConstruct.SDOALL, n_outer=8, n_inner=32, work_ns_per_iter=10_000
    )
    run(sim, runtime, [loop])
    joins = [e for e in runtime.hpm.offload() if e.event_type == EventType.HELPER_JOIN]
    detaches = [e for e in runtime.hpm.offload() if e.event_type == EventType.LOOP_DETACH]
    assert len(joins) == 3
    assert len(detaches) == 3


def test_barrier_waits_for_all_helpers():
    """BARRIER_EXIT comes after the last helper's LOOP_DETACH."""
    sim, runtime = make_runtime(32)
    loop = ParallelLoop(
        construct=LoopConstruct.SDOALL, n_outer=7, n_inner=16, work_ns_per_iter=50_000
    )
    run(sim, runtime, [loop])
    events = runtime.hpm.offload()
    barrier_exit = max(
        e.timestamp_ns for e in events if e.event_type == EventType.BARRIER_EXIT
    )
    last_detach = max(
        e.timestamp_ns for e in events if e.event_type == EventType.LOOP_DETACH
    )
    assert barrier_exit >= last_detach


def test_cluster_only_loop_uses_main_cluster_only():
    sim, runtime = make_runtime(32)
    loop = ParallelLoop(
        construct=LoopConstruct.CLUSTER_ONLY, n_inner=32, work_ns_per_iter=10_000
    )
    run(sim, runtime, [loop])
    events = runtime.hpm.offload()
    iter_ces = {e.processor_id for e in events if e.event_type == EventType.ITER_START}
    assert iter_ces  # executed
    assert all(ce < 8 for ce in iter_ces)  # only cluster 0 CEs
    types = [e.event_type for e in events]
    assert EventType.MC_LOOP_START in types
    assert EventType.MC_LOOP_END in types
    # No helpers involved: no joins.
    assert EventType.HELPER_JOIN not in types


def test_cdoacross_serialises_residue():
    """CDOACROSS with a serial fraction takes longer than pure CDOALL."""

    def ct_for(serial_fraction):
        sim, runtime = make_runtime(8)
        loop = ParallelLoop(
            construct=LoopConstruct.CDOACROSS,
            n_inner=64,
            work_ns_per_iter=100_000,
            serial_fraction=serial_fraction,
        )
        return run(sim, runtime, [loop])

    assert ct_for(0.5) > ct_for(0.0)


def test_multi_cluster_faster_than_single_cluster_for_parallel_work():
    def ct_for(n_proc):
        sim, runtime = make_runtime(n_proc)
        loop = ParallelLoop(
            construct=LoopConstruct.SDOALL,
            n_outer=16,
            n_inner=64,
            work_ns_per_iter=200_000,
        )
        return run(sim, runtime, [loop])

    assert ct_for(32) < ct_for(8) < ct_for(1)


def test_program_with_mixed_phases_completes():
    sim, runtime = make_runtime(16)
    phases = [
        SerialPhase(work_ns=500_000),
        ParallelLoop(
            construct=LoopConstruct.SDOALL, n_outer=4, n_inner=32, work_ns_per_iter=20_000
        ),
        SerialPhase(work_ns=200_000),
        ParallelLoop(construct=LoopConstruct.XDOALL, n_inner=64, work_ns_per_iter=20_000),
        ParallelLoop(
            construct=LoopConstruct.CLUSTER_ONLY, n_inner=16, work_ns_per_iter=20_000
        ),
    ]
    ct = run(sim, runtime, phases)
    assert ct > 700_000
    # Two spread loops -> two barriers on the main task.
    barriers = [
        e for e in runtime.hpm.offload() if e.event_type == EventType.BARRIER_ENTER
    ]
    assert len(barriers) == 2


def test_helper_wait_periods_bracket_loops():
    """Helpers alternate WAIT_WORK_ENTER/EXIT around each spread loop."""
    sim, runtime = make_runtime(16)
    phases = [
        ParallelLoop(
            construct=LoopConstruct.SDOALL, n_outer=4, n_inner=16, work_ns_per_iter=10_000
        ),
        ParallelLoop(construct=LoopConstruct.XDOALL, n_inner=32, work_ns_per_iter=10_000),
    ]
    run(sim, runtime, phases)
    helper_events = [
        e
        for e in runtime.hpm.offload()
        if e.processor_id == 8
        and e.event_type in (EventType.WAIT_WORK_ENTER, EventType.WAIT_WORK_EXIT)
    ]
    # enter/exit alternate, starting with enter: 3 waits (before loop 1,
    # before loop 2, before program end) -> 6 events.
    assert [e.event_type for e in helper_events] == [
        EventType.WAIT_WORK_ENTER,
        EventType.WAIT_WORK_EXIT,
    ] * 3


def test_loop_pages_fault_once():
    sim, runtime = make_runtime(32)
    loop = ParallelLoop(
        construct=LoopConstruct.SDOALL,
        n_outer=4,
        n_inner=32,
        work_ns_per_iter=10_000,
        page_base=0,
        iters_per_page=8,
    )
    run(sim, runtime, [loop, loop])  # second execution touches warm pages
    vm = runtime.kernel.vm
    assert vm.resident_pages == loop.n_pages
    assert vm.stats.sequential + vm.stats.concurrent == loop.n_pages


def test_parallel_page_sweep_produces_concurrent_faults():
    sim, runtime = make_runtime(32)
    loop = ParallelLoop(
        construct=LoopConstruct.XDOALL,
        n_inner=128,
        work_ns_per_iter=2_000,
        page_base=0,
        iters_per_page=16,
    )
    run(sim, runtime, [loop])
    assert runtime.kernel.vm.stats.concurrent > 0


def test_activity_board_sees_concurrency():
    sim, runtime = make_runtime(32)
    loop = ParallelLoop(
        construct=LoopConstruct.SDOALL,
        n_outer=8,
        n_inner=64,
        work_ns_per_iter=100_000,
    )
    run(sim, runtime, [loop])
    mean = runtime.board.mean_concurrency()
    assert mean > 4.0  # well beyond the 4 spinning lead CEs


def test_lead_ces_stay_active_during_serial():
    """During serial code, concurrency is 1 per cluster (Section 7)."""
    sim, runtime = make_runtime(32)

    observed = []
    record = runtime.hpm.record

    def observing_record(event_type, *args, **kwargs):
        if event_type == EventType.SERIAL_START:
            observed.append(runtime.board.active_total())
        record(event_type, *args, **kwargs)

    runtime.hpm.record = observing_record
    run(sim, runtime, [SerialPhase(work_ns=1_000_000)])
    assert observed == [4]


def test_single_processor_run_executes_loops_serially():
    sim, runtime = make_runtime(1)
    loop = ParallelLoop(
        construct=LoopConstruct.SDOALL, n_outer=4, n_inner=8, work_ns_per_iter=10_000
    )
    ct = run(sim, runtime, [loop])
    assert ct >= loop.total_work_ns


def test_cdoacross_dependence_distance_limits_width():
    """A distance-2 CDOACROSS can use at most 2 CEs."""

    def ct_for(distance):
        sim, runtime = make_runtime(8)
        loop = ParallelLoop(
            construct=LoopConstruct.CDOACROSS,
            n_inner=64,
            work_ns_per_iter=100_000,
            dependence_distance=distance,
        )
        return run(sim, runtime, [loop])

    unconstrained = ct_for(0)
    narrow = ct_for(2)
    wide = ct_for(8)
    assert narrow > unconstrained * 2
    assert wide == unconstrained


def test_dependence_distance_validation():
    import pytest as _pytest

    with _pytest.raises(ValueError):
        ParallelLoop(
            construct=LoopConstruct.SDOALL,
            n_inner=8,
            work_ns_per_iter=1,
            dependence_distance=2,
        )
    with _pytest.raises(ValueError):
        ParallelLoop(
            construct=LoopConstruct.CDOACROSS,
            n_inner=8,
            work_ns_per_iter=1,
            dependence_distance=-1,
        )
