"""Tests for fault application: costs emerge through existing mechanisms."""

import pytest

from repro.core import run_application
from repro.faults import CampaignSpec, FaultEvent, FaultInjector, run_with_campaign
from repro.hardware.config import paper_configuration
from repro.sim import SimulationError, Simulator
from repro.xylem.kernel import XylemKernel
from repro.xylem.params import XylemParams

SCALE = 0.002
SEED = 1994


def _healthy(app="FLO52", n=4):
    from repro.apps import PAPER_APPS

    return run_application(
        PAPER_APPS[app](), n, scale=SCALE, os_params=XylemParams(seed=SEED)
    )


def _degraded(faults, app="FLO52", n=4):
    spec = CampaignSpec(name="t", seed=SEED, faults=tuple(faults))
    return run_with_campaign(spec, app, n, scale=SCALE, seed=SEED)


def _degraded_stack(faults):
    """Run FLO52 on 4 CEs under *faults*.

    Arms the injector through the pre-run hook itself and returns the
    result with the live machine, kernel and fault ledger, which a
    result record does not carry.
    """
    from repro.apps import PAPER_APPS

    spec = CampaignSpec(name="t", seed=SEED, faults=tuple(faults))
    stack = {}

    def hook(sim, machine, kernel, runtime):
        injector = FaultInjector(sim, machine, kernel, runtime, spec)
        injector.arm()
        stack.update(machine=machine, kernel=kernel, ledger=injector.ledger)

    result = run_application(
        PAPER_APPS["FLO52"](), 4, scale=SCALE, os_params=XylemParams(seed=SEED),
        pre_run_hook=hook,
    )
    return result, stack


def test_bank_slow_raises_completion_time():
    healthy = _healthy()
    outcome = _degraded([FaultEvent(kind="bank_slow", at_ns=0, target=0, factor=8.0)])
    assert outcome.ledger.injected == 1
    assert outcome.result.ct_ns > healthy.ct_ns


def test_switch_degrade_raises_completion_time():
    healthy = _healthy()
    outcome = _degraded([FaultEvent(kind="switch_degrade", at_ns=0, extra_cycles=6)])
    assert outcome.result.ct_ns > healthy.ct_ns


def test_transient_fault_reverts():
    _, stack = _degraded_stack(
        [FaultEvent(kind="bank_slow", at_ns=0, target=0, factor=8.0, duration_ns=1000)]
    )
    assert stack["ledger"].injected == 1
    assert stack["ledger"].reverted == 1
    assert not stack["machine"].contention.degraded


def _sample_overlap(kind, long_fields=None, short_fields=None):
    """Run a long and a short *kind* fault on bank 3, sampling mid-run.

    The long fault holds [5, 35] ms, the short one [20, 22] ms.  Returns
    ``{t_ms: (bank 3's factor, offline banks, contention model's worst
    bank factor, contention model's offline module count)}`` at 21 ms
    (both active), 25 ms (only the long one) and 40 ms (neither).
    """
    ms = 1_000_000
    spec = CampaignSpec(
        name="overlap",
        seed=SEED,
        faults=(
            FaultEvent(kind=kind, at_ns=5 * ms, target=3, duration_ns=30 * ms,
                       **(long_fields or {})),
            FaultEvent(kind=kind, at_ns=20 * ms, target=3, duration_ns=2 * ms,
                       **(short_fields or {})),
        ),
    )
    samples = {}

    def hook(sim, machine, kernel, runtime):
        injector = FaultInjector(sim, machine, kernel, runtime, spec)
        injector.arm()

        def sampler():
            for t_ms in (21, 25, 40):
                yield sim.timeout(t_ms * ms - sim.now)
                samples[t_ms] = (
                    injector._bank_factor(3),
                    dict(injector._offline_banks),
                    machine.contention._worst_bank_factor,
                    machine.contention._offline_modules,
                )

        sim.process(sampler(), name="sampler")

    from repro.apps import PAPER_APPS

    run_application(
        PAPER_APPS["FLO52"](), 4, scale=SCALE, os_params=XylemParams(seed=SEED),
        pre_run_hook=hook,
    )
    return samples


def test_overlapping_bank_slow_faults_compose():
    samples = _sample_overlap("bank_slow", {"factor": 4.0}, {"factor": 2.0})
    assert samples[21][0] == samples[21][2] == 8.0
    # The short fault's revert leaves the long one's slowdown in place.
    assert samples[25][0] == samples[25][2] == 4.0
    assert samples[40][0] == samples[40][2] == 1.0


def test_overlapping_bank_offline_faults_compose():
    samples = _sample_overlap("bank_offline")
    assert samples[21][1] == {3: 2} and samples[21][3] == 1
    # Bank 3 stays offline while the long fault still holds it.
    assert samples[25][1] == {3: 1} and samples[25][3] == 1
    assert samples[40][1] == {} and samples[40][3] == 0


def test_ce_deconfig_completes_with_redistribution():
    healthy = _healthy()
    result, stack = _degraded_stack([FaultEvent(kind="ce_deconfig", at_ns=0, target=1)])
    assert not stack["kernel"].ce_available(1)
    assert stack["kernel"].ce_available(0)
    # The loop iterations still all ran -- redistributed over survivors.
    assert result.ct_ns >= healthy.ct_ns
    assert result.runtime_stats.barriers == healthy.runtime_stats.barriers


def test_deconfigure_guard_refuses_to_empty_cluster():
    sim = Simulator()
    kernel = XylemKernel(sim, paper_configuration(8))
    for ce in range(7):
        kernel.deconfigure_ce(ce)
    with pytest.raises(SimulationError, match="no configured CEs"):
        kernel.deconfigure_ce(7)
    assert kernel.available_ces(0) == [7]
    kernel.reconfigure_ce(3)
    assert kernel.ce_available(3)


def test_lock_inflate_raises_system_overhead():
    healthy = _healthy()
    outcome = _degraded([FaultEvent(kind="lock_inflate", at_ns=0, factor=20.0)])
    assert outcome.result.ct_ns > healthy.ct_ns


def _warm_page_app():
    """A workload whose loops revisit the same (warm) pages every step."""
    from repro.apps import AppModel, LoopShape
    from repro.runtime.loops import LoopConstruct

    shape = LoopShape(
        construct=LoopConstruct.SDOALL,
        n_outer=4,
        n_inner=32,
        iter_time_ns=50_000,
        iters_per_page=8,
        fresh_pages_each_step=False,
        label="warm",
    )
    return AppModel(
        name="WARM", n_steps=6, serial_per_step_ns=100_000, loops_per_step=[shape]
    )


def _run_warm(faults=()):
    spec = CampaignSpec(name="storm", seed=SEED, faults=tuple(faults))
    injectors = []

    def hook(sim, machine, kernel, runtime):
        injector = FaultInjector(sim, machine, kernel, runtime, spec)
        injector.arm()
        injectors.append(injector)

    result = run_application(
        _warm_page_app(),
        4,
        scale=1.0,
        os_params=XylemParams(seed=SEED),
        pre_run_hook=hook,
    )
    return result, injectors[0]


def test_pagefault_storm_forces_refaults():
    healthy, _ = _run_warm()
    strike = healthy.ct_ns // 2
    storm, injector = _run_warm(
        [FaultEvent(kind="pagefault_storm", at_ns=strike, fraction=1.0)]
    )
    assert injector.ledger.pages_invalidated > 0
    healthy_faults = healthy.fault_stats.sequential + healthy.fault_stats.concurrent
    storm_faults = storm.fault_stats.sequential + storm.fault_stats.concurrent
    assert storm_faults > healthy_faults
