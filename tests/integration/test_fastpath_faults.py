"""The fast path publishes the exact path's results under fault campaigns.

Arming a campaign leaves the push-mode statfx sampler on.  Each
faulted cell here runs twice through
:func:`repro.faults.run_with_campaign`: once as users run it, and once
with ``CEDAR_REPRO_FASTPATH=off`` forcing the exact sampler.  The two
must publish the same :func:`~repro.analyze.race.fingerprint_result`
digest.

Two kinds of campaign drive the cells:

* generated campaigns whose kinds, together, cover every fault kind;
* a hand-written campaign of overlapping transient memory faults, which
  the generator never draws (it gives only ``lock_inflate`` a
  duration).  Strikes and reverts sit at fixed fractions of the healthy
  cell's completion time, so they land inside parallel loops.

Every test also checks that it is not vacuous: the fast run really
sampled in push mode, and every fault in the ledger struck before the
cell completed.
"""

from __future__ import annotations

import pytest

from repro.analyze.race import fingerprint_result
from repro.core.reference import APPS
from repro.faults import CampaignSpec, FaultEvent, run_with_campaign
from repro.faults.spec import FAULT_KINDS, generate_campaign
from repro.parallel import CellSpec, run_cell

SCALE = 0.002
SEED = 1994
PROCESSORS = (8, 32)

GENERATED = tuple(
    generate_campaign(
        seed=seed, n_faults=6, horizon_ns=1_000_000_000, n_processors=8
    )
    for seed in (4, 12, 30)
)


def _transient_campaign(ct_ns: int) -> CampaignSpec:
    """Overlapping transient faults at fixed fractions of *ct_ns*."""

    def at(fraction: float) -> int:
        return int(ct_ns * fraction)

    return CampaignSpec(
        name="transient",
        seed=SEED,
        faults=(
            FaultEvent(kind="bank_slow", at_ns=at(0.11), target=3, factor=4.0,
                       duration_ns=at(0.5)),
            FaultEvent(kind="bank_offline", at_ns=at(0.17), target=5,
                       duration_ns=at(0.4)),
            FaultEvent(kind="bank_slow", at_ns=at(0.23), target=3, factor=2.0,
                       duration_ns=at(0.1)),
            FaultEvent(kind="bank_offline", at_ns=at(0.29), target=5,
                       duration_ns=at(0.05)),
            FaultEvent(kind="switch_degrade", at_ns=at(0.37), extra_cycles=4,
                       duration_ns=at(0.21)),
            FaultEvent(kind="lock_inflate", at_ns=at(0.43), factor=3.0,
                       duration_ns=at(0.13)),
        ),
    )


def _run(specs, app: str, n_proc: int, fast: bool):
    outcomes = []
    for spec in specs:
        outcome = run_with_campaign(spec, app, n_proc, scale=SCALE, seed=SEED)
        result = outcome.result
        records = outcome.ledger.records
        assert records, (spec.name, app, n_proc)
        assert all(r.applied_ns < result.ct_ns for r in records), spec.name
        if fast:
            assert result.fastpath_modes["statfx"] == "push"
        outcomes.append(outcome)
    return outcomes


def _assert_fast_matches_exact(specs, app, n_proc, monkeypatch):
    """Run *specs* fast, then exact; return the fast outcomes."""
    fast = _run(specs, app, n_proc, fast=True)
    monkeypatch.setenv("CEDAR_REPRO_FASTPATH", "off")
    exact = _run(specs, app, n_proc, fast=False)
    assert [fingerprint_result(o.result).digest for o in exact] == [
        fingerprint_result(o.result).digest for o in fast
    ]
    return fast


def test_generated_campaigns_cover_every_app_cell_kind():
    kinds = {fault.kind for spec in GENERATED for fault in spec.faults}
    assert kinds == set(FAULT_KINDS)


@pytest.mark.parametrize("n_proc", PROCESSORS)
@pytest.mark.parametrize("app", APPS)
def test_generated_campaigns_fast_matches_exact(app, n_proc, monkeypatch):
    _assert_fast_matches_exact(GENERATED, app, n_proc, monkeypatch)


@pytest.mark.parametrize("n_proc", PROCESSORS)
@pytest.mark.parametrize("app", APPS)
def test_transient_campaign_fast_matches_exact(app, n_proc, monkeypatch):
    healthy = run_cell(CellSpec(app, n_proc, scale=SCALE, seed=SEED))
    spec = _transient_campaign(healthy.ct_ns)
    [fast] = _assert_fast_matches_exact([spec], app, n_proc, monkeypatch)
    assert fast.ledger.reverted == len(spec.faults)
