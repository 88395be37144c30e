"""Run applications under a fault campaign.

Glues a :class:`~repro.faults.spec.CampaignSpec` to the experiment
runner: the campaign's injector is armed through the runner's
``pre_run_hook`` seam, so the degraded run uses exactly the same stack
assembly as a healthy one, and the same ``(campaign, seed)`` pair
always reproduces the same schedule.  The injector's
:class:`~repro.faults.injector.FaultLedger` rides on the result
(``result.fault_ledger``), so the stack is dropped when the run ends.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.apps import resolve_app
from repro.core.runner import DEFAULT_SCALE, RunResult, run_application
from repro.faults.injector import FaultInjector
from repro.faults.spec import CampaignSpec
from repro.xylem.params import XylemParams

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hardware.machine import CedarMachine
    from repro.obs.instrument import Observability
    from repro.runtime.library import CedarFortranRuntime
    from repro.runtime.params import RuntimeParams
    from repro.sim.core import Simulator
    from repro.xylem.kernel import XylemKernel

__all__ = ["run_with_campaign"]


def run_with_campaign(
    spec: CampaignSpec,
    app: str,
    n_processors: int,
    scale: float = DEFAULT_SCALE,
    seed: int | None = None,
    obs: "Observability | None" = None,
    rt_params: "RuntimeParams | None" = None,
    statfx_interval_ns: int = 200_000,
    max_events: int | None = None,
    max_sim_time: int | None = None,
) -> RunResult:
    """Run *app* at *n_processors* with *spec*'s faults injected.

    Returns the run's result; the injector's
    :class:`~repro.faults.injector.FaultLedger` (records + counters) is
    ``result.fault_ledger``.

    *seed* overrides the campaign's seed for the OS jitter stream;
    ``faults.*`` metrics are folded into *obs*'s registry when given.
    *statfx_interval_ns* is forwarded to the runner so campaign cells
    honour the same sampling cadence as healthy ones.
    """
    builder = resolve_app(app)
    injectors: list[FaultInjector] = []

    def hook(
        sim: Simulator,
        machine: CedarMachine,
        kernel: XylemKernel,
        runtime: CedarFortranRuntime,
    ) -> None:
        injector = FaultInjector(sim, machine, kernel, runtime, spec)
        injector.arm()
        injectors.append(injector)

    result = run_application(
        builder(),
        n_processors,
        scale=scale,
        os_params=XylemParams(seed=seed if seed is not None else spec.seed),
        rt_params=rt_params,
        statfx_interval_ns=statfx_interval_ns,
        obs=obs,
        pre_run_hook=hook,
        max_events=max_events,
        max_sim_time=max_sim_time,
    )
    result.fault_ledger = injectors[0].ledger
    if obs is not None:
        result.fault_ledger.collect(obs.registry)
    return result
