"""Deterministic fault injection for the Cedar reproduction.

The paper characterises a *healthy* Cedar; this package asks the
complementary question -- how do the paper's overhead categories shift
when the machine degrades?  Faults are scheduled in **sim time** from a
seeded :class:`CampaignSpec` and applied through the model's existing
mechanisms (slower banks, degraded switches, deconfigured CEs, inflated
kernel locks, page-fault storms), so their cost *emerges* through the
same contention/OS/runtime paths the paper measures rather than being
charged directly.

Entry points:

* :func:`run_with_campaign` -- run one application under a campaign.
* :func:`degraded_mode_experiment` -- the healthy-vs-degraded breakdown
  comparison (``docs/fault-injection.md``).
* ``cedar-repro inject`` / ``cedar-repro campaign`` -- the CLI.

:mod:`repro.faults.host` is the *other* fault plane: seeded chaos
against the **host** running the campaign (SIGKILLed workers, hangs,
stragglers, corrupted cache entries), used to exercise the crash-safe
execution layer in :mod:`repro.parallel.durable` rather than the
simulated machine (``docs/resilience.md``).
"""

from repro.faults.campaign import CampaignRunOutcome, run_with_campaign
from repro.faults.experiments import degraded_campaign, degraded_mode_experiment
from repro.faults.host import (
    HOST_CHAOS_SCHEMA,
    HOST_FAULT_KINDS,
    HostChaosError,
    HostChaosPlan,
    HostFault,
    corrupt_cache_entry,
    generate_host_chaos,
    load_host_chaos,
    save_host_chaos,
)
from repro.faults.injector import FaultInjectionError, FaultInjector, FaultLedger, InjectedFault
from repro.faults.spec import (
    DEFAULT_CONFIGS,
    FAULT_KINDS,
    CampaignError,
    CampaignSpec,
    FaultEvent,
    generate_campaign,
    load_campaign,
    save_campaign,
)

__all__ = [
    "DEFAULT_CONFIGS",
    "FAULT_KINDS",
    "HOST_CHAOS_SCHEMA",
    "HOST_FAULT_KINDS",
    "CampaignError",
    "CampaignRunOutcome",
    "CampaignSpec",
    "FaultEvent",
    "FaultInjectionError",
    "FaultInjector",
    "FaultLedger",
    "HostChaosError",
    "HostChaosPlan",
    "HostFault",
    "InjectedFault",
    "corrupt_cache_entry",
    "degraded_campaign",
    "degraded_mode_experiment",
    "generate_campaign",
    "generate_host_chaos",
    "load_campaign",
    "load_host_chaos",
    "run_with_campaign",
    "save_campaign",
    "save_host_chaos",
]
