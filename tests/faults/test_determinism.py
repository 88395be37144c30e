"""Fault campaigns are bit-deterministic and pass the determinism lint."""

from pathlib import Path

from repro.analyze.engine import lint_paths
from repro.analyze.sanitize import DeterminismSink
from repro.core.breakdown import ct_breakdown
from repro.faults import degraded_campaign, run_with_campaign
from repro.obs import Observability

SCALE = 0.002

FAULTS_SRC = Path(__file__).resolve().parents[2] / "src" / "repro" / "faults"


def _instrumented_run(seed):
    sink = DeterminismSink()
    obs = Observability(extra_sinks=[sink])
    result = run_with_campaign(
        degraded_campaign(seed), "FLO52", 4, scale=SCALE, seed=seed, obs=obs
    )
    return sink, result, obs


def test_same_seed_same_schedule_and_breakdown():
    sink_a, result_a, obs_a = _instrumented_run(1994)
    sink_b, result_b, obs_b = _instrumented_run(1994)
    assert sink_a.schedule_hash == sink_b.schedule_hash
    assert result_a.ct_ns == result_b.ct_ns
    assert ct_breakdown(result_a, 0) == ct_breakdown(result_b, 0)
    names = obs_a.registry.names("faults")
    assert names == obs_b.registry.names("faults")
    assert names  # the campaign must actually have injected something
    for name in names:
        assert obs_a.registry.value(name) == obs_b.registry.value(name)


def test_different_seed_changes_schedule():
    sink_a, _, _ = _instrumented_run(1994)
    sink_b, _, _ = _instrumented_run(2023)
    assert sink_a.schedule_hash != sink_b.schedule_hash


def test_fault_ledgers_identical_across_runs():
    _, result_a, _ = _instrumented_run(1994)
    _, result_b, _ = _instrumented_run(1994)
    notes_a = [(r.kind, r.applied_ns, r.note) for r in result_a.fault_ledger.records]
    notes_b = [(r.kind, r.applied_ns, r.note) for r in result_b.fault_ledger.records]
    assert notes_a == notes_b


def test_faults_package_passes_determinism_lint():
    result = lint_paths([FAULTS_SRC])
    assert result.files_checked >= 4
    assert result.ok, "\n".join(str(f) for f in result.findings)
