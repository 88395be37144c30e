"""Tie-break perturbation sanitizer: acceptance and self-test.

The contract under test: every published result must be a pure
function of the model, never of same-tick event insertion order.  The
sanitizer permutes `(time, priority)`-tied dequeue order with K seeded
runs and asserts byte-identical result fingerprints; the planted
hazard proves the detector actually detects.
"""

from __future__ import annotations

import pytest

from repro.analyze import fingerprint_result, race_app
from repro.core.runner import run_application
from repro.xylem.params import XylemParams

PERFECT_APPS = ("ADM", "ARC2D", "FLO52", "MDG", "OCEAN")
SMALL_SCALE = 0.002


def _flo52():
    from repro.apps import PAPER_APPS

    return PAPER_APPS["FLO52"]()


# -- fingerprints ------------------------------------------------------------


def test_fingerprint_is_deterministic_across_runs():
    a = fingerprint_result(
        run_application(_flo52(), 4, scale=SMALL_SCALE, os_params=XylemParams(seed=7))
    )
    b = fingerprint_result(
        run_application(_flo52(), 4, scale=SMALL_SCALE, os_params=XylemParams(seed=7))
    )
    assert a.digest == b.digest
    assert a.diff(b) == []


def test_fingerprint_distinguishes_configurations():
    a = fingerprint_result(
        run_application(_flo52(), 4, scale=SMALL_SCALE, os_params=XylemParams(seed=7))
    )
    b = fingerprint_result(
        run_application(_flo52(), 8, scale=SMALL_SCALE, os_params=XylemParams(seed=7))
    )
    assert a.digest != b.digest
    assert a.diff(b)  # at least one located mismatch


def test_fingerprint_covers_statfx_and_loop_regions():
    """Tables 1, 3 and 4 read the statfx sums and the loop regions."""
    import dataclasses

    from repro.hpm.events import EventList, EventType, TraceEvent

    snap = run_application(
        _flo52(), 4, scale=SMALL_SCALE, os_params=XylemParams(seed=7)
    )
    base = fingerprint_result(dataclasses.replace(snap, _cache={}))
    assert fingerprint_result(snap).digest == base.digest

    sums = snap.statfx_sums
    bumped_sum = fingerprint_result(
        dataclasses.replace(snap, statfx_sums=(sums[0] + 1, *sums[1:]), _cache={})
    )
    assert bumped_sum.digest != base.digest
    assert bumped_sum.diff(base)

    events = list(snap.events)
    index = next(
        i
        for i, e in enumerate(events)
        if e.event_type == EventType.LOOP_POST and e.task_id == 0
    )
    post = events[index]
    events[index] = TraceEvent(
        post.event_type,
        post.timestamp_ns + 1,
        post.processor_id,
        post.task_id,
        post.payload,
    )
    shifted = fingerprint_result(
        dataclasses.replace(snap, events=EventList(events), _cache={})
    )
    assert shifted.digest != base.digest
    assert shifted.diff(base)


def test_fingerprint_covers_the_pickup_iteration_summary():
    """Figures 5-9 read pickup and iteration time from the summary."""
    import dataclasses

    snap = run_application(
        _flo52(), 4, scale=SMALL_SCALE, os_params=XylemParams(seed=7)
    )
    base = fingerprint_result(snap)
    summary = {key: list(totals) for key, totals in snap.hpm_summary.items()}
    key = next(k for k in summary if k[1] == "iteration" and k[2] == "sdoall")
    summary[key][1] += 1
    bumped = fingerprint_result(dataclasses.replace(snap, hpm_summary=summary, _cache={}))
    assert bumped.digest != base.digest
    assert any(line.startswith("summary.") for line in bumped.diff(base, limit=50))


def test_breakdowns_do_not_depend_on_whether_helpers_wake_before_the_end():
    """The helpers' last wake-up shares the program end's instant.

    A perturbed order can stop the run first, leaving their final waits
    open; those must close where the recorded close would have been.
    """
    from repro.core.breakdown import user_breakdowns
    from repro.hpm.events import EventType

    def run(tie_break_seed):
        return run_application(
            _flo52(),
            32,
            scale=SMALL_SCALE,
            os_params=XylemParams(seed=1994),
            tie_break_seed=tie_break_seed,
        )

    def wait_exits(result):
        return sum(t == EventType.WAIT_WORK_EXIT for t in result.events.types)

    base, perturbed = run(None), run(1)
    assert wait_exits(perturbed) < wait_exits(base)
    assert user_breakdowns(perturbed) == user_breakdowns(base)
    assert fingerprint_result(perturbed).digest == fingerprint_result(base).digest


def test_perturbed_schedule_differs_but_results_do_not():
    """The permutation really permutes; the results really hold still."""
    from repro.analyze.sanitize import DeterminismSink
    from repro.obs.instrument import Observability

    def one(tie_break_seed):
        sink = DeterminismSink()
        result = run_application(
            _flo52(),
            8,
            scale=SMALL_SCALE,
            os_params=XylemParams(seed=7),
            obs=Observability(extra_sinks=[sink]),
            tie_break_seed=tie_break_seed,
        )
        return result, sink

    base, base_sink = one(None)
    perturbed, pert_sink = one(3)
    assert base_sink.schedule_hash != pert_sink.schedule_hash
    assert fingerprint_result(base).digest == fingerprint_result(perturbed).digest
    # The sanitizer perturbs the program a default run executes.
    assert perturbed.fastpath_modes == {"statfx": "push"}


# -- acceptance: the five Perfect-Club apps ----------------------------------


@pytest.mark.parametrize("app", PERFECT_APPS)
def test_paper_apps_are_order_independent(app):
    report = race_app(app, n_processors=8, scale=SMALL_SCALE, seeds=(1, 2, 3, 4, 5))
    assert report.hazard_free, report.format()
    assert report.tie_breaks > 0  # the permutation had ties to permute
    assert "PASS" in report.format()


def test_synthetic_app_is_order_independent():
    report = race_app("synthetic", n_processors=4, scale=0.02, seeds=(1, 2))
    assert report.hazard_free, report.format()


def test_race_app_rejects_unknown_app():
    with pytest.raises(ValueError):
        race_app("NOSUCH", n_processors=4, seeds=(1,))


def test_report_lists_hot_tie_sites():
    report = race_app("FLO52", n_processors=8, scale=SMALL_SCALE, seeds=(1,))
    assert report.hot_sites
    assert all(count > 0 for _, _, count in report.hot_sites)
    assert "hottest tie sites" in report.format()


# -- self-test: the planted hazard must be caught ----------------------------


def test_planted_hazard_is_detected():
    report = race_app(
        "FLO52",
        n_processors=8,
        scale=SMALL_SCALE,
        seeds=(1, 2, 3),
        order_hazard=True,
    )
    assert not report.hazard_free
    text = report.format()
    assert "FAIL" in text
    divergence = report.divergences[0]
    assert divergence.seed in (1, 2, 3)
    assert divergence.mismatches  # names the diverged result keys
    # The schedule hashes localise the first divergent event.
    assert divergence.divergence_index is not None
    assert divergence.baseline_token != divergence.perturbed_token
