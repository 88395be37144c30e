"""End-to-end integration tests across all subsystems.

Each test runs a real (small) application through the complete stack --
simulator, machine, Xylem, runtime, monitors -- and cross-checks
quantities measured by *different* subsystems against each other.
"""

import pytest

from repro.apps import flo52, synthetic_app
from repro.core import (
    ct_breakdown,
    extract_intervals,
    run_application,
    user_breakdown,
)
from repro.core.trace_analysis import IntervalKind
from repro.hpm.events import EventType
from repro.runtime import LoopConstruct
from repro.xylem.categories import OsActivity, TimeCategory


@pytest.fixture(scope="module")
def flo52_stack():
    """The run's result, and its live stack kept through the pre-run hook."""
    stack = {}

    def keep(sim, machine, kernel, runtime):
        stack.update(machine=machine, kernel=kernel)

    result = run_application(
        flo52(), 32, scale=0.01, iteration_events=True, pre_run_hook=keep
    )
    return result, stack


@pytest.fixture(scope="module")
def flo52_run(flo52_stack):
    return flo52_stack[0]


def test_run_produces_complete_result(flo52_run):
    result = flo52_run
    assert result.ct_ns > 0
    assert result.events
    assert result.app_name == "FLO52"
    assert result.n_processors == 32
    assert result.extrapolation == 100.0  # 1 of 100 steps simulated


def test_events_are_time_ordered_and_quantised(flo52_run):
    previous = 0
    for event in flo52_run.events:
        assert event.timestamp_ns % 50 == 0
        assert event.timestamp_ns >= previous
        previous = event.timestamp_ns


def test_program_markers_bracket_all_runtime_events(flo52_run):
    events = flo52_run.events
    start = next(e for e in events if e.event_type == EventType.PROGRAM_START)
    end = next(e for e in events if e.event_type == EventType.PROGRAM_END)
    for event in events:
        if event.event_type in (EventType.ITER_START, EventType.BARRIER_ENTER):
            assert start.timestamp_ns <= event.timestamp_ns <= end.timestamp_ns


def test_every_loop_post_has_matching_barrier(flo52_run):
    posts = [e for e in flo52_run.events if e.event_type == EventType.LOOP_POST]
    barriers = [
        e for e in flo52_run.events if e.event_type == EventType.BARRIER_EXIT
    ]
    assert len(posts) == len(barriers) > 0


def test_helper_joins_match_detaches(flo52_run):
    joins = [e for e in flo52_run.events if e.event_type == EventType.HELPER_JOIN]
    detaches = [e for e in flo52_run.events if e.event_type == EventType.LOOP_DETACH]
    assert len(joins) == len(detaches)
    # 3 helpers x number of spread loops.
    posts = [e for e in flo52_run.events if e.event_type == EventType.LOOP_POST]
    assert len(joins) == 3 * len(posts)


def test_intervals_reconstruct_cleanly(flo52_run):
    intervals = extract_intervals(flo52_run.events, end_ns=flo52_run.ct_ns)
    assert intervals
    for interval in intervals:
        assert 0 <= interval.start_ns <= interval.end_ns <= flo52_run.ct_ns


def test_statfx_and_board_agree(flo52_run):
    """The sampled concurrency converges to the exact board average."""
    sampled = flo52_run.total_concurrency()
    exact = flo52_run.mean_concurrency()
    assert sampled == pytest.approx(exact, rel=0.1)


def test_accounting_matches_vm_statistics(flo52_stack):
    """Fault counts seen by the VM match the accounting charges."""
    result, stack = flo52_stack
    stats = result.fault_stats
    accounting = result.accounting
    seq_ns = accounting.activity_total_ns(OsActivity.PGFLT_SEQUENTIAL)
    params = result.os_params
    assert seq_ns == stats.sequential * params.pgflt_sequential_cost_ns
    assert stats.sequential + stats.concurrent == stack["kernel"].vm.resident_pages


def test_breakdowns_are_mutually_consistent(flo52_run):
    """User time from Q >= useful+overhead time from the traces."""
    q = ct_breakdown(flo52_run, 0)
    b = user_breakdown(flo52_run, 0)
    assert b.useful_ns + b.overhead_ns <= q[TimeCategory.USER] * 1.05


def test_load_tracker_drained_after_run(flo52_stack):
    assert flo52_stack[1]["machine"].load.active == 0


def test_cluster_only_app_runs_on_one_cluster():
    app = synthetic_app(
        construct=LoopConstruct.CLUSTER_ONLY,
        n_steps=2,
        loops_per_step=2,
        n_outer=1,
        n_inner=24,
        iter_time_ns=500_000,
    )
    result = run_application(app, 32, scale=1.0, iteration_events=True)
    intervals = extract_intervals(result.events, result.ct_ns)
    iter_ces = {
        iv.processor_id for iv in intervals if iv.kind is IntervalKind.ITERATION
    }
    assert iter_ces and all(ce < 8 for ce in iter_ces)


def test_deterministic_reruns():
    """Same app, same config, same seed: identical completion time."""
    app = synthetic_app(n_steps=1, loops_per_step=2, n_outer=4, n_inner=8)
    a = run_application(app, 16, scale=1.0)
    b = run_application(app, 16, scale=1.0)
    assert a.ct_ns == b.ct_ns
    assert len(a.events) == len(b.events)


def test_scale_extrapolation_roughly_linear():
    """Doubling the simulated steps doubles simulated CT (~)."""
    app = synthetic_app(n_steps=4, loops_per_step=2, n_outer=4, n_inner=16)
    half = run_application(app, 8, scale=0.5)
    full = run_application(app, 8, scale=1.0)
    assert full.ct_ns == pytest.approx(2 * half.ct_ns, rel=0.1)
    # Extrapolated CTs agree.
    assert half.ct_seconds == pytest.approx(full.ct_seconds, rel=0.1)
