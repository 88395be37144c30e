"""Tests for the resilient sweep: one bad cell must not sink the sweep.

Cells run on the executor's in-process route (``jobs=1``); poisoned
cells are planted by replacing :func:`repro.parallel.executor.run_cell`,
the function every route runs.
"""

import json

import pytest

from repro.apps import synthetic_app
from repro.core import (
    failure_report,
    render_partial_table,
    resilient_sweep,
    run_application,
    save_failure_report,
)
from repro.parallel import executor
from repro.xylem.params import XylemParams

_TINY = synthetic_app(
    n_steps=1, loops_per_step=1, n_outer=2, n_inner=8, iter_time_ns=20_000
)


@pytest.fixture
def poison(monkeypatch):
    """Plant ``poison(cells)``: those ``(app, P)`` cells raise, the rest
    run a tiny synthetic app; returns the list of attempted cells."""
    calls = []

    def plant(poisoned):
        def run_cell(spec, obs=None):
            cell = (spec.app, spec.n_processors)
            calls.append(cell)
            if cell in poisoned:
                raise RuntimeError(f"poisoned cell {spec.app}/{spec.n_processors}")
            return run_application(
                _TINY, spec.n_processors, scale=1.0, os_params=XylemParams(seed=1)
            )

        monkeypatch.setattr(executor, "run_cell", run_cell)
        return calls

    return plant


def test_failing_cell_is_isolated(poison):
    calls = poison({("B", 4)})
    outcome = resilient_sweep(["A", "B"], configs=(1, 4))

    assert not outcome.ok
    assert outcome.failed_cells() == {("B", 4)}
    # All other cells completed despite the failure.
    assert sorted(outcome.results["A"]) == [1, 4]
    assert sorted(outcome.results["B"]) == [1]
    failure = outcome.failures[0]
    assert failure.error_type == "RuntimeError"
    assert failure.attempts == 2  # first try + one same-seed retry
    assert calls.count(("B", 4)) == 2


def test_retries_zero_means_single_attempt(poison):
    calls = poison({("A", 1)})
    outcome = resilient_sweep(["A"], configs=(1,), retries=0)
    assert outcome.failures[0].attempts == 1
    assert calls == [("A", 1)]


def test_negative_retries_rejected():
    with pytest.raises(ValueError, match="retries"):
        resilient_sweep(["A"], configs=(1,), retries=-1)


def test_partial_table_marks_failures(poison):
    poison({("B", 4)})
    outcome = resilient_sweep(["A", "B"], configs=(1, 4))
    table = render_partial_table(outcome)
    assert "FAILED(RuntimeError)" in table
    assert "partial: 1 cell(s) failed" in table
    assert "ok" in table


def test_failure_report_round_trips(poison, tmp_path):
    poison({("B", 4)})
    outcome = resilient_sweep(["A", "B"], configs=(1, 4))
    report = failure_report(outcome)
    assert report["schema"] == "cedar-repro/failure-report/v1"
    assert report["cells_ok"] == 3
    assert report["cells_failed"] == 1
    assert report["failures"][0]["app"] == "B"

    path = tmp_path / "failures.json"
    save_failure_report(outcome, path)
    assert json.loads(path.read_text()) == report


def test_clean_sweep_is_ok(poison):
    poison(set())
    outcome = resilient_sweep(["A"], configs=(1, 4))
    assert outcome.ok
    assert outcome.failed_cells() == set()
    assert "partial" not in render_partial_table(outcome)


def test_runaway_cell_fails_alone_in_process():
    """A real watchdog trip, not a planted one: at this scale FLO52
    processes about 2,900 events on one processor and 3,250 on four,
    so a 3,000-event budget trips only the P=4 cell."""
    outcome = resilient_sweep(["FLO52"], configs=(1, 4), scale=0.002, max_events=3000)
    assert outcome.failed_cells() == {("FLO52", 4)}
    assert sorted(outcome.results["FLO52"]) == [1]
    [failure] = outcome.failures
    assert failure.error_type == "RunawaySimulation"
    assert failure.attempts == 2
    assert "max_events" in failure.message
