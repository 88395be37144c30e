"""Overhead guard for campaign telemetry on pooled sweeps.

:class:`~repro.obs.campaign.CampaignTelemetry` adds, per cell attempt:
two coordinator-side log writes, one :class:`~repro.obs.campaign.
CellSpan` constructed in the worker, and (when a registry rides along)
one metrics snapshot pickled back with the result.  None of that may
show up in the figures users wait for, so this benchmark asserts:

* a telemetry-on pooled sweep costs at most ``TOLERANCE`` more wall
  time than the identical telemetry-off sweep, and
* the telemetered pooled results are byte-identical to the serial
  reference (same Table 1 text, same schedule hashes) -- observation
  must never perturb the simulation.

Timing uses the ``test_obs_overhead.py`` discipline: interleaved
pairs, batch medians, and the gate passes if any of ``MAX_BATCHES``
batches lands within tolerance (host noise on shared machines reaches
a few percent per batch).
"""

from __future__ import annotations

import statistics
from time import perf_counter

from repro.analyze.race import fingerprint_result
from repro.core.experiments import table1
from repro.obs.campaign import CampaignTelemetry
from repro.core.resilience import resilient_sweep

#: Allowed telemetry-on wall-time regression per pooled sweep.
TOLERANCE = 0.05

#: Interleaved (off, on) sweep pairs per batch.
PAIRS_PER_BATCH = 3

#: Batches attempted before declaring a regression.
MAX_BATCHES = 3

#: Workload: long enough (~1 s per sweep on 2 workers) to amortise
#: pool start-up, which a sweep of a few 20 ms cells would not.
APPS = ["FLO52", "ARC2D"]
CONFIGS = (1, 4, 8, 16, 32)
SCALE = 0.02
SEED = 1994
JOBS = 2


def _sweep_s(telemetry: CampaignTelemetry | None) -> float:
    begin = perf_counter()
    outcome = resilient_sweep(
        APPS,
        configs=CONFIGS,
        scale=SCALE,
        seed=SEED,
        jobs=JOBS,
        telemetry=telemetry,
    )
    wall = perf_counter() - begin
    assert outcome.ok
    return wall


def _batch_ratio(tmp_path_factory) -> float:
    """Median telemetry-on / telemetry-off wall ratio of one batch."""
    ratios = []
    for pair in range(PAIRS_PER_BATCH):
        off = _sweep_s(None)
        log = tmp_path_factory.mktemp("campaign-log") / f"pair{pair}.jsonl"
        on = _sweep_s(CampaignTelemetry(log_path=log, progress=False))
        ratios.append(on / off)
    return statistics.median(ratios)


def test_telemetry_on_pooled_sweep_within_tolerance(tmp_path_factory):
    threshold = 1.0 + TOLERANCE
    medians = []
    for _ in range(MAX_BATCHES):
        median = _batch_ratio(tmp_path_factory)
        medians.append(median)
        if median <= threshold:
            return
    raise AssertionError(
        f"telemetry-on pooled sweep costs {min(medians):.3f}x the "
        f"telemetry-off sweep in the best of {MAX_BATCHES} batches "
        f"(allowed {threshold:.3f}x). All medians: "
        + ", ".join(f"{m:.3f}" for m in medians)
    )


def test_telemetered_pooled_tables_byte_identical_to_serial(tmp_path):
    serial = resilient_sweep(APPS, configs=CONFIGS, scale=SCALE, seed=SEED, jobs=1)
    telemetry = CampaignTelemetry(
        log_path=tmp_path / "campaign.jsonl", progress=False
    )
    pooled = resilient_sweep(
        APPS,
        configs=CONFIGS,
        scale=SCALE,
        seed=SEED,
        jobs=JOBS,
        telemetry=telemetry,
    )
    assert serial.ok and pooled.ok
    assert table1(pooled.results)[1] == table1(serial.results)[1]
    for app in APPS:
        for n_proc in CONFIGS:
            a = serial.results[app][n_proc]
            b = pooled.results[app][n_proc]
            assert b.ct_ns == a.ct_ns
            assert fingerprint_result(b).digest == fingerprint_result(a).digest
    # The campaign saw exactly the simulated cells, none cached.
    report = telemetry.report()
    assert report["cells"]["total"] == len(APPS) * len(CONFIGS)
    assert report["cells"]["simulated"] == len(APPS) * len(CONFIGS)
    assert report["cache"]["hits"] == 0
