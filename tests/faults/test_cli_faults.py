"""CLI tests for fault injection, campaigns, and unified error handling."""

import json

import pytest

from repro.cli import main
from repro.faults import CampaignSpec, FaultEvent, load_campaign, save_campaign


def _tiny_campaign(tmp_path, **spec_kwargs):
    spec = CampaignSpec(
        name="cli-tiny",
        seed=1994,
        faults=(FaultEvent(kind="bank_slow", at_ns=0, target=0, factor=4.0),),
        **spec_kwargs,
    )
    path = tmp_path / "campaign.json"
    save_campaign(spec, path)
    return path


def test_unknown_app_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "NOPE", "8"])
    assert excinfo.value.code == 2
    assert "error: unknown application" in capsys.readouterr().err


def test_malformed_campaign_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(SystemExit) as excinfo:
        main(["inject", "flo52", "4", "--campaign", str(bad)])
    assert excinfo.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_missing_campaign_file_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["campaign", str(tmp_path / "nope.json"), "--scale", "0.002"])
    assert excinfo.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_inject_refuses_a_ce_beyond_the_processor_count(tmp_path, capsys):
    # Seed 2 draws a ce_deconfig of CE 2, which P = 1 does not have; the
    # run once died of a raw "ce_id 2 out of range" when it struck.
    path = tmp_path / "generated.json"
    main(["campaign", str(path), "--generate", "--seed", "2"])
    capsys.readouterr()
    with pytest.raises(SystemExit) as excinfo:
        main(["inject", "flo52", "1", "--campaign", str(path), "--scale", "0.002"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: fault #3 (ce_deconfig at 40659464 ns) targets CE 2, "
        "out of range for P=1"
    ]


def test_inject_smoke(tmp_path, capsys):
    path = _tiny_campaign(tmp_path)
    main(["inject", "flo52", "4", "--campaign", str(path), "--scale", "0.002"])
    out = capsys.readouterr().out
    assert "under campaign 'cli-tiny'" in out
    assert "faults: 1 injected" in out
    assert "bank_slow" in out
    assert "completion-time breakdown" in out
    assert "faults.injected" in out


def test_campaign_generate_writes_valid_spec(tmp_path, capsys):
    path = tmp_path / "generated.json"
    main(["campaign", str(path), "--generate", "--seed", "7", "--faults", "3"])
    out = capsys.readouterr().out
    assert "wrote campaign" in out
    spec = load_campaign(path)
    assert spec.seed == 7
    assert len(spec.faults) == 3


@pytest.mark.parametrize("seed", range(1, 9))
def test_generated_campaign_runs_on_the_default_config(tmp_path, capsys, seed):
    # Seeds 2 and 6 once drew ce_deconfig targets from 32 CEs, which the
    # default P = 4 cell rejected ("ce_id 23 out of range").
    path = tmp_path / "generated.json"
    main(["campaign", str(path), "--generate", "--seed", str(seed)])
    spec = load_campaign(path)
    assert all(
        f.target < 4 for f in spec.faults if f.kind == "ce_deconfig"
    ), spec.faults
    main(["campaign", str(path), "--scale", "0.002", "--jobs", "1"])
    out = capsys.readouterr().out
    assert "FAILED" not in out
    assert "FLO52 |     4 |" in out


def test_campaign_run_renders_table(tmp_path, capsys):
    path = _tiny_campaign(tmp_path, apps=("FLO52",), configs=(4,))
    report = tmp_path / "failures.json"
    main(
        [
            "campaign",
            str(path),
            "--scale",
            "0.002",
            "--report",
            str(report),
            "--jobs",
            "1",
        ]
    )
    out = capsys.readouterr().out
    assert "campaign 'cli-tiny'" in out
    assert "Sweep results" in out
    data = json.loads(report.read_text())
    assert data["cells_failed"] == 0
    assert data["cells_ok"] == 1


def test_run_accepts_seed(capsys):
    main(["run", "flo52", "4", "--scale", "0.002", "--seed", "7"])
    out = capsys.readouterr().out
    assert "FLO52 on 4 processors" in out
