"""Tests for the degraded-mode characterization experiment."""

from repro.faults import degraded_campaign, degraded_mode_experiment, run_with_campaign


def test_degraded_campaign_shape():
    spec = degraded_campaign()
    kinds = sorted(f.kind for f in spec.faults)
    assert kinds == ["bank_slow", "ce_deconfig"]
    assert spec.name == "degraded-canonical"


def test_degraded_mode_experiment_structure():
    report = degraded_mode_experiment(
        apps=("FLO52",), n_processors=4, scale=0.002, seed=1994
    )
    assert len(report.rows) == 2
    modes = [row[1] for row in report.rows]
    assert modes == ["healthy", "degraded"]
    healthy_ct, degraded_ct = (row[2] for row in report.rows)
    # The slow bank and the dead CE must cost something.
    assert degraded_ct > healthy_ct
    result = run_with_campaign(
        degraded_campaign(), "FLO52", 4, scale=0.002, seed=1994
    )
    assert result.fault_ledger.injected == 2

    rendered = report.render()
    assert "healthy" in rendered
    assert "degraded" in rendered
    assert "Degraded-mode characterization" in rendered
    # Every percentage cell is a sane fraction of CT.
    for row in report.rows:
        for cell in row[3:]:
            assert 0.0 <= cell <= 100.0
