"""Tests for campaign specs: validation, (de)serialisation, generation."""

import json

import pytest

from repro.faults import (
    CampaignError,
    CampaignSpec,
    FaultEvent,
    generate_campaign,
    load_campaign,
    save_campaign,
)


def test_round_trip(tmp_path):
    spec = CampaignSpec(
        name="rt",
        seed=7,
        description="round trip",
        apps=("FLO52",),
        configs=(4, 8),
        faults=(
            FaultEvent(kind="bank_slow", at_ns=100, target=3, factor=2.0),
            FaultEvent(kind="lock_inflate", at_ns=200, factor=4.0, duration_ns=1000),
        ),
    )
    path = tmp_path / "c.json"
    save_campaign(spec, path)
    assert load_campaign(path) == spec


@pytest.mark.parametrize("kind", ["meteor_strike", "switch_stall"])
def test_unknown_kind_rejected(kind):
    with pytest.raises(CampaignError, match="unknown fault kind"):
        FaultEvent(kind=kind, at_ns=0)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(kind="bank_slow", at_ns=0, target=0, factor=1.0),
        dict(kind="bank_slow", at_ns=0, factor=2.0),
        dict(kind="bank_offline", at_ns=0),
        dict(kind="switch_degrade", at_ns=0, extra_cycles=0),
        dict(kind="bank_offline", at_ns=0, target=0, duration_ns=0),
        dict(kind="ce_deconfig", at_ns=0, target=1, duration_ns=10),
        dict(kind="lock_inflate", at_ns=0, factor=0.5),
        dict(kind="pagefault_storm", at_ns=0, fraction=1.5),
        dict(kind="pagefault_storm", at_ns=0, fraction=0.5, duration_ns=10),
        dict(kind="bank_slow", at_ns=-5, target=0, factor=2.0),
    ],
)
def test_invalid_fault_events_rejected(kwargs):
    with pytest.raises(CampaignError):
        FaultEvent(**kwargs)


def test_malformed_json_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(CampaignError, match="not valid JSON"):
        load_campaign(path)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(CampaignError, match="cannot read"):
        load_campaign(tmp_path / "nope.json")


def test_unknown_fields_rejected(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"name": "x", "surprise": 1}))
    with pytest.raises(CampaignError, match="unknown campaign fields"):
        load_campaign(path)


def test_unknown_fault_field_rejected(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(
        json.dumps({"name": "x", "faults": [{"kind": "bank_slow", "wat": 1}]})
    )
    with pytest.raises(CampaignError, match="fault #0"):
        load_campaign(path)


def test_generate_is_seed_deterministic():
    a = generate_campaign(seed=42, n_faults=6)
    b = generate_campaign(seed=42, n_faults=6)
    assert a == b
    c = generate_campaign(seed=43, n_faults=6)
    assert a != c


def test_generate_sorts_strikes_chronologically():
    spec = generate_campaign(seed=5, n_faults=50)
    # Strike times are sorted so the schedule reads chronologically.
    times = [f.at_ns for f in spec.faults]
    assert times == sorted(times)
