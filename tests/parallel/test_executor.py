"""Executor semantics: pool == in-process, warm cache == simulation.

The load-bearing guarantees: a ``jobs>1`` sweep is indistinguishable
from the in-process one (same tables, same result fingerprints), a warm
cache serves every cell without simulating, metrics report what
happened on every route, and bad inputs fail loudly.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.analyze.race import fingerprint_result
from repro.core.experiments import table1
from repro.core.resilience import resilient_sweep
from repro.obs.registry import MetricsRegistry
from repro.parallel import CellSpec, ResultCache, execute_cells, run_cell

SCALE = 0.002
SEED = 1994
CONFIGS = (1, 4)


def _fingerprint(outcome, n_proc: int) -> str:
    return fingerprint_result(outcome.results["FLO52"][n_proc]).digest


@pytest.fixture(scope="module")
def serial_outcome():
    return resilient_sweep(["FLO52"], configs=CONFIGS, scale=SCALE, seed=SEED, jobs=1)


def test_pool_matches_serial(serial_outcome, tmp_path):
    metrics = MetricsRegistry()
    pooled = resilient_sweep(
        ["FLO52"],
        configs=CONFIGS,
        scale=SCALE,
        seed=SEED,
        jobs=2,
        cache_dir=tmp_path / "cache",
        metrics=metrics,
    )
    assert pooled.ok and serial_outcome.ok
    for n_proc in CONFIGS:
        a = serial_outcome.results["FLO52"][n_proc]
        b = pooled.results["FLO52"][n_proc]
        assert b.ct_ns == a.ct_ns
        assert fingerprint_result(b).digest == fingerprint_result(a).digest
    assert table1(pooled.results)[1] == table1(serial_outcome.results)[1]

    # Cold pass: every cell missed the cache, was simulated, was stored.
    assert metrics.value("parallel.jobs") == 2
    assert metrics.value("parallel.cells.total") == len(CONFIGS)
    assert metrics.value("parallel.cells.completed") == len(CONFIGS)
    assert metrics.value("parallel.cells.failed") == 0
    assert metrics.value("cache.misses") == len(CONFIGS)
    assert metrics.value("cache.puts") == len(CONFIGS)
    assert metrics.value("parallel.wall_s") > 0
    assert 0 < metrics.value("parallel.pool.utilization") <= 1

    # Warm pass: every cell served from cache, nothing simulated.
    warm_metrics = MetricsRegistry()
    warm = resilient_sweep(
        ["FLO52"],
        configs=CONFIGS,
        scale=SCALE,
        seed=SEED,
        jobs=2,
        cache_dir=tmp_path / "cache",
        metrics=warm_metrics,
    )
    assert warm.ok
    assert warm_metrics.value("cache.hits") == len(CONFIGS)
    assert warm_metrics.value("cache.puts") == 0
    assert table1(warm.results)[1] == table1(serial_outcome.results)[1]
    for n_proc in CONFIGS:
        assert _fingerprint(warm, n_proc) == _fingerprint(serial_outcome, n_proc)


def test_resilient_sweep_delegates_to_parallel(serial_outcome, tmp_path):
    outcome = resilient_sweep(
        ["FLO52"],
        configs=CONFIGS,
        scale=SCALE,
        seed=SEED,
        jobs=2,
        cache_dir=tmp_path / "cache",
    )
    assert outcome.ok
    assert table1(outcome.results)[1] == table1(serial_outcome.results)[1]


def test_failures_reported_in_input_order(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    bad = CellSpec(app="NOPE", n_processors=4, scale=SCALE, seed=SEED)
    good = CellSpec(app="FLO52", n_processors=1, scale=SCALE, seed=SEED)
    worse = CellSpec(app="ALSO_NOPE", n_processors=8, scale=SCALE, seed=SEED)
    results, failures = execute_cells(
        [bad, good, worse], jobs=2, cache=cache, retries=1
    )
    assert good in results and bad not in results
    assert [(f.app, f.n_processors) for f in failures] == [("NOPE", 4), ("ALSO_NOPE", 8)]
    for failure in failures:
        assert failure.error_type == "ValueError"
        assert failure.attempts == 2  # 1 + retries, same as the serial path
        assert "unknown application" in failure.message
    # The good cell was cached despite its neighbours failing.
    assert cache.get(good.key()) is not None
    assert cache.get(bad.key()) is None


def test_validation_errors():
    with pytest.raises(ValueError, match="jobs"):
        execute_cells([], jobs=0)
    with pytest.raises(ValueError, match="retries"):
        execute_cells([], retries=-1)
    with pytest.raises(ValueError, match="unsupported sweep options"):
        resilient_sweep(["FLO52"], jobs=2, os_params=object())


def test_default_pooled_cells_run_the_fast_paths():
    """A default cell carries no sink, so the pool samples statfx in push mode."""
    spec = CellSpec(app="FLO52", n_processors=4, scale=SCALE, seed=SEED)
    results, failures = execute_cells([spec], jobs=2)
    assert not failures
    assert results[spec].fastpath_modes == {"statfx": "push"}
    assert results[spec].schedule_hash is None


def test_iteration_events_leave_the_published_result_unchanged():
    """The full per-iteration trace is a diagnostic: the tables never read it."""
    spec = CellSpec(app="FLO52", n_processors=4, scale=SCALE, seed=SEED)
    default = run_cell(spec)
    traced = run_cell(dataclasses.replace(spec, iteration_events=True))
    assert len(traced.events) > len(default.events)
    assert fingerprint_result(traced).digest == fingerprint_result(default).digest


def test_campaign_cells_reject_the_diagnostic_options():
    from repro.faults.experiments import degraded_campaign

    spec = CellSpec(app="FLO52", n_processors=4, campaign=degraded_campaign())
    for option in (
        {"iteration_events": True},
        {"tie_break_seed": 1},
        {"order_hazard": True},
    ):
        with pytest.raises(ValueError, match="fault-campaign cell"):
            dataclasses.replace(spec, **option)


def test_empty_specs():
    results, failures = execute_cells([], jobs=1)
    assert results == {} and failures == []


def test_telemetry_observes_without_perturbing(serial_outcome, tmp_path):
    """A telemetered pooled sweep returns byte-identical results while
    the telemetry object ends up with the spans, the log, the report
    and the merged campaign metrics."""
    from repro.obs.campaign import CAMPAIGN_LOG_SCHEMA, CampaignTelemetry
    from repro.obs.campaign import load_campaign_log

    log = tmp_path / "campaign.jsonl"
    telemetry = CampaignTelemetry(log_path=log, progress=False, label="t")
    pooled = resilient_sweep(
        ["FLO52"],
        configs=CONFIGS,
        scale=SCALE,
        seed=SEED,
        jobs=2,
        cache_dir=tmp_path / "cache",
        telemetry=telemetry,
    )
    assert pooled.ok
    assert table1(pooled.results)[1] == table1(serial_outcome.results)[1]
    for n_proc in CONFIGS:
        assert _fingerprint(pooled, n_proc) == _fingerprint(serial_outcome, n_proc)

    # Spans: one successful worker-side attempt per cell.
    assert len(telemetry.spans) == len(CONFIGS)
    assert all(s.ok and not s.cache_hit for s in telemetry.spans)
    assert {s.n_processors for s in telemetry.spans} == set(CONFIGS)
    assert {s.n_processors: s.result_fingerprint for s in telemetry.spans} == {
        n_proc: _fingerprint(serial_outcome, n_proc) for n_proc in CONFIGS
    }
    assert all(s.run_wall_s > 0 for s in telemetry.spans)
    assert all(s.metrics is not None for s in telemetry.spans)

    # The default registry carries executor + cache + campaign metrics.
    reg = telemetry.registry
    assert reg.value("parallel.cells.total") == len(CONFIGS)
    assert reg.value("cache.puts") == len(CONFIGS)
    assert reg.value("campaign.cells.completed") == len(CONFIGS)
    assert reg.value("campaign.run.ct_ns") > 0  # merged worker snapshot

    # The log round-trips and the report sees the whole campaign.
    header, events = load_campaign_log(log)
    assert header["schema"] == CAMPAIGN_LOG_SCHEMA
    assert header["jobs"] == 2
    report = telemetry.report()
    assert report["cells"]["completed"] == len(CONFIGS)
    assert report["cells"]["simulated"] == len(CONFIGS)
    assert report["latency_s"]["p95"] > 0
    assert report["throughput"]["sustained_cells_per_s"] > 0

    # Warm rerun: telemetry sees pure cache hits, results unchanged.
    warm_telemetry = CampaignTelemetry(progress=False)
    warm = resilient_sweep(
        ["FLO52"],
        configs=CONFIGS,
        scale=SCALE,
        seed=SEED,
        jobs=2,
        cache_dir=tmp_path / "cache",
        telemetry=warm_telemetry,
    )
    assert warm.ok
    assert table1(warm.results)[1] == table1(serial_outcome.results)[1]
    warm_report = warm_telemetry.report()
    assert warm_report["cache"]["hits"] == len(CONFIGS)
    assert warm_report["cells"]["simulated"] == 0
    assert warm_telemetry.registry.value("campaign.cells.cache_hits") == len(
        CONFIGS
    )


def test_telemetry_off_cells_skip_the_metrics_harvest(monkeypatch):
    """Without telemetry nobody reads a cell's registry, so none is harvested."""
    from repro.obs import instrument

    harvests = []
    monkeypatch.setattr(
        instrument, "collect_run_metrics", lambda *args: harvests.append(args)
    )
    spec = CellSpec(app="FLO52", n_processors=4, scale=SCALE, seed=SEED)
    results, failures = execute_cells([spec], jobs=1)
    assert not failures and spec in results
    assert harvests == []


@pytest.mark.parametrize(
    "jobs, journaled",
    [(1, False), (2, False), (1, True), (2, True)],
    ids=["in-process", "pool", "journaled-in-process", "journaled-pool"],
)
def test_every_route_emits_the_executor_metrics(tmp_path, jobs, journaled):
    metrics = MetricsRegistry()
    outcome = resilient_sweep(
        ["FLO52"],
        configs=CONFIGS,
        scale=SCALE,
        seed=SEED,
        jobs=jobs,
        metrics=metrics,
        checkpoint=tmp_path / "sweep.journal" if journaled else None,
    )
    assert outcome.ok
    assert (outcome.recovery is not None) == journaled
    assert metrics.value("parallel.cells.completed") == len(CONFIGS)
    assert metrics.get("parallel.cell_wall_s").count == len(CONFIGS)
    assert 0 < metrics.value("parallel.pool.utilization") <= 1
    assert metrics.value("parallel.recovery.retries") == 0


def test_run_cell_records_schedule_hash():
    default = run_cell(CellSpec(app="FLO52", n_processors=4, scale=SCALE, seed=SEED))
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
