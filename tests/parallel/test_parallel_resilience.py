"""Resilience under parallelism: one wedged cell, not a wedged sweep.

A cell that trips the runaway watchdog inside a pool worker must fail
*its own* future -- the exception type (whose constructor doesn't
round-trip through pickle) is carried as a structured payload, the
other cells complete and get cached, and the partial-table / failure-
report machinery works on the outcome exactly as it does serially.
"""

from __future__ import annotations

import pytest

from repro.core.resilience import failure_report, render_partial_table, resilient_sweep
from repro.obs.registry import MetricsRegistry
from repro.parallel import CellSpec, run_cell

SCALE = 0.002
SEED = 1994


@pytest.fixture(scope="module")
def cts():
    """Healthy completion times for FLO52 at P=1 and P=4."""
    return {
        p: run_cell(CellSpec(app="FLO52", n_processors=p, scale=SCALE, seed=SEED)).ct_ns
        for p in (1, 4)
    }


@pytest.fixture(scope="module")
def threshold(cts):
    """A watchdog limit only the (slower) uniprocessor run exceeds."""
    assert cts[1] > cts[4], "P=1 should be the slow cell"
    return (cts[1] + cts[4]) // 2


def test_wedged_cell_fails_alone_through_the_pool(cts, threshold, tmp_path):
    metrics = MetricsRegistry()
    outcome = resilient_sweep(
        ["FLO52"],
        configs=(1, 4),
        scale=SCALE,
        seed=SEED,
        jobs=2,
        cache_dir=tmp_path / "cache",
        metrics=metrics,
        max_sim_time=threshold,
    )

    # Exactly the P=1 cell trips RunawaySimulation; P=4 completes.
    assert not outcome.ok
    assert outcome.failed_cells() == {("FLO52", 1)}
    [failure] = outcome.failures
    assert failure.error_type == "RunawaySimulation"
    assert failure.attempts == 2
    assert "max_sim_time" in failure.message
    survivor = outcome.results["FLO52"][4]
    assert survivor.ct_ns == cts[4]
    assert metrics.value("parallel.cells.failed") == 1
    assert metrics.value("parallel.cells.completed") == 1
    assert metrics.value("parallel.retries") == 1

    # The partial table and the failure report still render.
    table = render_partial_table(outcome)
    assert "FAILED(RunawaySimulation)" in table
    assert "partial: 1 cell(s) failed" in table
    report = failure_report(outcome)
    assert report["cells_ok"] == 1
    assert report["cells_failed"] == 1
    assert report["failures"][0]["error_type"] == "RunawaySimulation"

    # Warm rerun: the survivor is served from cache; the wedged cell is
    # re-attempted (failures are never cached) and fails again.
    warm_metrics = MetricsRegistry()
    warm = resilient_sweep(
        ["FLO52"],
        configs=(1, 4),
        scale=SCALE,
        seed=SEED,
        jobs=2,
        cache_dir=tmp_path / "cache",
        metrics=warm_metrics,
        max_sim_time=threshold,
    )
    assert warm.failed_cells() == {("FLO52", 1)}
    assert warm_metrics.value("cache.hits") == 1
    assert warm.results["FLO52"][4].ct_ns == cts[4]


def test_watchdog_exception_is_deterministic(threshold):
    spec = CellSpec(
        app="FLO52", n_processors=1, scale=SCALE, seed=SEED, max_sim_time=threshold
    )
    from repro.sim.errors import RunawaySimulation

    with pytest.raises(RunawaySimulation):
        run_cell(spec)
