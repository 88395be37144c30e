"""Seed-determinism regression: same seed => bit-identical runs.

The paper's methodology only holds if contention *emerges* identically
from identical inputs: two runs of the same application, configuration
and seed must produce the same completion time, the same breakdowns and
-- stronger -- the same processed-event schedule, verified via the
:class:`~repro.analyze.sanitize.DeterminismSink` schedule hash.
"""

from __future__ import annotations

import pytest

from repro.analyze import DeterminismSink
from repro.apps import flo52, ocean
from repro.core import ct_breakdown, run_application, user_breakdown
from repro.obs import Observability
from repro.xylem.categories import TimeCategory
from repro.xylem.params import XylemParams

SEED = 20260805
SCALE = 0.01


def _run_once(builder):
    sink = DeterminismSink()
    obs = Observability(extra_sinks=[sink])
    result = run_application(
        builder(), 8, scale=SCALE, os_params=XylemParams(seed=SEED), obs=obs
    )
    return result, sink


@pytest.mark.parametrize("builder", [flo52, ocean], ids=["FLO52", "OCEAN"])
def test_same_seed_identical_breakdowns_and_schedule(builder):
    first, sink_a = _run_once(builder)
    second, sink_b = _run_once(builder)

    # Completion time and every reported breakdown must match exactly.
    assert first.ct_ns == second.ct_ns
    for cluster in range(first.config.n_clusters):
        a, b = ct_breakdown(first, cluster), ct_breakdown(second, cluster)
        assert {c: a[c] for c in TimeCategory} == {c: b[c] for c in TimeCategory}
    for task in range(first.config.n_clusters):
        assert (
            user_breakdown(first, task).as_dict()
            == user_breakdown(second, task).as_dict()
        )

    # And the schedules themselves must be event-for-event identical.
    assert sink_a.events_processed == sink_b.events_processed
    assert sink_a.schedule_hash == sink_b.schedule_hash
    assert sink_a.first_divergence(sink_b) is None


def test_parallel_sweep_equals_serial_runs():
    """A ``jobs=4`` cached sweep is indistinguishable from serial runs.

    The full FLO52+OCEAN sweep over every paper configuration, executed
    through the process pool and the result cache, must reproduce the
    exact completion times, per-cluster breakdowns and result
    fingerprints of plain serial :func:`run_application` calls --
    parallelism and snapshotting must be invisible to the analysis.
    """
    import tempfile

    from repro.analyze.race import fingerprint_result
    from repro.core import reference
    from repro.parallel import parallel_sweep

    scale, seed = 0.005, SEED
    builders = {"FLO52": flo52, "OCEAN": ocean}

    serial: dict[str, dict[int, object]] = {}
    for app, builder in builders.items():
        serial[app] = {}
        for n_proc in reference.CONFIGS:
            serial[app][n_proc] = run_application(
                builder(), n_proc, scale=scale, os_params=XylemParams(seed=seed)
            )

    with tempfile.TemporaryDirectory() as cache_dir:
        pooled = parallel_sweep(
            list(builders),
            configs=reference.CONFIGS,
            scale=scale,
            seed=seed,
            jobs=4,
            cache_dir=cache_dir,
        )
    assert pooled.ok, f"parallel sweep failed: {pooled.failures}"

    for app in builders:
        for n_proc in reference.CONFIGS:
            live = serial[app][n_proc]
            snap = pooled.results[app][n_proc]
            assert snap.ct_ns == live.ct_ns, (app, n_proc)
            assert (
                fingerprint_result(snap).digest == fingerprint_result(live).digest
            ), (app, n_proc)
            for cluster in range(live.config.n_clusters):
                assert ct_breakdown(snap, cluster) == ct_breakdown(live, cluster)
                assert (
                    user_breakdown(snap, cluster).as_dict()
                    == user_breakdown(live, cluster).as_dict()
                )


def test_different_seeds_differ():
    """Sanity check: the seed actually reaches the model."""
    sink_a = DeterminismSink()
    first = run_application(
        flo52(),
        8,
        scale=SCALE,
        os_params=XylemParams(seed=1),
        obs=Observability(extra_sinks=[sink_a]),
    )
    sink_b = DeterminismSink()
    second = run_application(
        flo52(),
        8,
        scale=SCALE,
        os_params=XylemParams(seed=2),
        obs=Observability(extra_sinks=[sink_b]),
    )
    assert first.ct_ns != second.ct_ns or (
        sink_a.schedule_hash != sink_b.schedule_hash
    )
