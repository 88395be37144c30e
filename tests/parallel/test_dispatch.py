"""How the executor dispatches: longest cell first, and no pool it cannot use.

A pool pays its fork and pickling cost only when two or more cells are
left to simulate, so a warm or nearly warm sweep must run in process.
When a pool does run, the cells that simulate the most loop iterations
go first, so the sweep does not end waiting on its longest cells.
"""

from __future__ import annotations

import pytest

from repro.analyze.race import fingerprint_result
from repro.parallel import CellSpec, ResultCache, execute_cells, pool
from repro.parallel.durable import DurablePolicy

SCALE = 0.002
SEED = 1994


def _spec(app: str, n_processors: int = 4, scale: float = SCALE) -> CellSpec:
    return CellSpec(app=app, n_processors=n_processors, scale=scale, seed=SEED)


class _NoPool:
    """Stands in for ``Pool`` where none may be built."""

    def __init__(self, *args: object) -> None:
        raise AssertionError("execute_cells built a worker pool")


def test_cost_estimates_rank_the_paper_apps_as_they_cost():
    estimates = {
        app: pool.cost_estimate(app, 0.02)
        for app in ("FLO52", "ARC2D", "MDG", "OCEAN", "ADM")
    }
    assert estimates == {
        "ADM": 27_600,
        "ARC2D": 7_680,
        "MDG": 4_096,
        "OCEAN": 968,
        "FLO52": 964,
    }
    assert pool.cost_estimate("NOPE", 0.02) is None


def test_longest_first_keeps_input_order_for_ties_and_unknowns():
    flo_1, flo_4, adm_4 = _spec("FLO52", 1), _spec("FLO52", 4), _spec("ADM", 4)
    unknown = _spec("NOPE")
    scenario = CellSpec(app="ADM", n_processors=4, scenario="{}")
    order = pool.longest_first([scenario, unknown, flo_1, flo_4, adm_4])
    assert order == [adm_4, flo_1, flo_4, scenario, unknown]


def test_pool_submits_adm_before_flo52_and_matches_grid_order(monkeypatch):
    specs = [_spec("FLO52"), _spec("ADM")]
    submitted = []
    submit = pool.Pool.submit

    def recording_submit(self, payload):
        submitted.append(payload[0])
        return submit(self, payload)

    monkeypatch.setattr(pool.Pool, "submit", recording_submit)
    pooled, failures = execute_cells(specs, jobs=2)
    assert not failures
    assert submitted == [specs[1], specs[0]]

    in_grid_order, failures = execute_cells(specs, jobs=1)
    assert not failures
    assert {spec: fingerprint_result(r).digest for spec, r in pooled.items()} == {
        spec: fingerprint_result(r).digest for spec, r in in_grid_order.items()
    }


def test_cached_and_single_cell_runs_build_no_pool(monkeypatch, tmp_path):
    cache = ResultCache(tmp_path / "cache")
    specs = [_spec("FLO52", 1), _spec("FLO52", 4)]
    execute_cells(specs, jobs=1, cache=cache)

    monkeypatch.setattr(pool, "Pool", _NoPool)
    warm, failures = execute_cells(specs, jobs=4, cache=cache)
    assert not failures and set(warm) == set(specs)

    one_new = [*specs, _spec("FLO52", 8)]
    results, failures = execute_cells(one_new, jobs=4, cache=cache)
    assert not failures and set(results) == set(one_new)


def test_a_deadline_still_takes_a_killable_worker_for_one_cell(monkeypatch):
    monkeypatch.setattr(pool, "Pool", _NoPool)
    with pytest.raises(AssertionError, match="built a worker pool"):
        execute_cells(
            [_spec("FLO52")], jobs=4, policy=DurablePolicy(cell_deadline_s=60.0)
        )
