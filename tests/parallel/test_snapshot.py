"""Snapshot fidelity: a detached result must analyse like the live one.

:func:`repro.parallel.snapshot.snapshot_result` replaces the live
simulator objects on a :class:`RunResult` with frozen, picklable views.
Every analysis the tables and the obs layer perform must produce
*identical* output from either form -- that contract is what makes
cached/pooled results interchangeable with serial ones.
"""

from __future__ import annotations

import pickle

import pytest

from repro.apps import PAPER_APPS
from repro.core.breakdown import ct_breakdown, memory_decomposition, user_breakdown
from repro.core.concurrency import parallel_loop_concurrency
from repro.core.contention import contention_overhead
from repro.core.runner import run_application
from repro.obs.exporters import build_run_report
from repro.obs.instrument import collect_run_metrics
from repro.parallel import CellSpec, is_snapshot, run_cell, snapshot_result
from repro.xylem.params import XylemParams

SCALE = 0.002
SEED = 1994


@pytest.fixture(scope="module")
def live():
    """A live 32-processor run (4 clusters: the richest view structure)."""
    return run_application(
        PAPER_APPS["FLO52"](), 32, scale=SCALE, os_params=XylemParams(seed=SEED)
    )


@pytest.fixture(scope="module")
def base():
    """The matching uniprocessor run (contention baseline)."""
    return run_application(
        PAPER_APPS["FLO52"](), 1, scale=SCALE, os_params=XylemParams(seed=SEED)
    )


@pytest.fixture(scope="module")
def snap(live):
    return snapshot_result(live)


def test_is_snapshot(live, snap):
    assert not is_snapshot(live)
    assert is_snapshot(snap)
    assert is_snapshot(live.portable())


def test_scalar_fields_preserved(live, snap):
    assert snap.ct_ns == live.ct_ns
    assert snap.ct_seconds == live.ct_seconds
    assert snap.scale == live.scale
    assert snap.wall_s == live.wall_s
    assert snap.config == live.config
    assert snap.app_name == live.app_name


def test_breakdowns_identical(live, snap):
    for cluster in range(live.config.n_clusters):
        assert ct_breakdown(snap, cluster) == ct_breakdown(live, cluster)
    for task in range(live.config.n_clusters):
        assert (
            user_breakdown(snap, task).as_dict()
            == user_breakdown(live, task).as_dict()
        )
        assert parallel_loop_concurrency(snap, task) == parallel_loop_concurrency(
            live, task
        )


def test_memory_and_contention_identical(live, base, snap):
    assert memory_decomposition(snap) == memory_decomposition(live)
    base_snap = snapshot_result(base)
    assert contention_overhead(snap, base_snap) == contention_overhead(live, base)


def test_collected_metrics_identical(live, snap):
    live_metrics = collect_run_metrics(live).snapshot()
    snap_metrics = collect_run_metrics(snap).snapshot()
    assert snap_metrics == live_metrics


def test_pickle_roundtrip(live, snap):
    blob = pickle.dumps(snap, protocol=pickle.HIGHEST_PROTOCOL)
    revived = pickle.loads(blob)
    assert revived.ct_ns == live.ct_ns
    assert (
        collect_run_metrics(revived).snapshot()
        == collect_run_metrics(live).snapshot()
    )
    for cluster in range(live.config.n_clusters):
        assert ct_breakdown(revived, cluster) == ct_breakdown(live, cluster)


def test_run_report_identical(live, snap):
    assert build_run_report(snap) == build_run_report(live)


def test_run_cell_records_schedule_hash():
    default = run_cell(CellSpec(app="FLO52", n_processors=4, scale=SCALE, seed=SEED))
    assert is_snapshot(default)
    assert default.schedule_hash is None  # sink-free unless asked

    spec = CellSpec(
        app="FLO52",
        n_processors=4,
        scale=SCALE,
        seed=SEED,
        fingerprint_schedule=True,
    )
    first = run_cell(spec)
    assert first.schedule_hash is not None
    second = run_cell(spec)
    assert second.schedule_hash == first.schedule_hash
    assert second.ct_ns == first.ct_ns == default.ct_ns
