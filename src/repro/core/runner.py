"""Experiment runner: execute an application model on a configuration.

Assembles the full stack -- simulator, machine, Xylem kernel, cedarhpm
monitor, activity board, statfx sampler, runtime library -- runs the
program in a dedicated single-user setting (only the target application
and the OS, as in the paper), and returns a
:class:`~repro.core.record.RunResult`: the run's measured record,
harvested from the stack once the event loop stops.  The record holds
plain data only, so the same object feeds the tables, crosses a process
pool and lives in the result cache; the stack itself is dropped.  A
caller that needs the live stack (a fault injector, a test probing
internals) gets it through *pre_run_hook*.  This module imports the
whole stack: it is the seam that simulates, and a process that only
reads results never imports it.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING

from repro.apps.base import AppModel
from repro.core.record import DEFAULT_SCALE, RunResult
from repro.hardware.config import CedarConfig, paper_configuration
from repro.hardware.machine import CedarMachine
from repro.hpm.activity import ActivityBoard
from repro.hpm.monitor import CedarHpm
from repro.hpm.statfx import Statfx
from repro.obs.hostclock import WallTimer
from repro.runtime.library import CedarFortranRuntime
from repro.runtime.loops import Phase
from repro.runtime.params import RuntimeParams
from repro.sim.core import Simulator
from repro.xylem.kernel import XylemKernel
from repro.xylem.locks import KernelLock
from repro.xylem.params import XylemParams

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.instrument import Observability

__all__ = ["DEFAULT_SCALE", "PreRunHook", "RunResult", "run_application", "run_phases"]

#: Callback invoked after the stack is assembled, before the event loop
#: starts; used by ``repro.faults`` to arm fault-injection processes.
PreRunHook = Callable[
    [Simulator, CedarMachine, XylemKernel, CedarFortranRuntime], None
]

def run_phases(
    phases: list[Phase],
    n_processors: int,
    app_name: str = "custom",
    scale: float = 1.0,
    extrapolation: float = 1.0,
    config: CedarConfig | None = None,
    os_params: XylemParams | None = None,
    rt_params: RuntimeParams | None = None,
    statfx_interval_ns: int = 200_000,
    obs: "Observability | None" = None,
    pre_run_hook: PreRunHook | None = None,
    max_events: int | None = None,
    max_sim_time: int | None = None,
    tie_break_seed: int | None = None,
    iteration_events: bool = False,
) -> RunResult:
    """Run an explicit phase list on a configuration (low-level entry).

    Pass an :class:`~repro.obs.instrument.Observability` as *obs* to
    attach kernel trace sinks for the run and have its metrics registry
    populated from the result.  With ``obs=None`` (the default) the
    event loop stays on its sink-free fast path.

    *pre_run_hook* is called with the assembled ``(sim, machine,
    kernel, runtime)`` before the event loop starts -- the seam
    ``repro.faults`` uses to arm injection processes.  *max_events* /
    *max_sim_time* are forwarded to :meth:`Simulator.run` as a runaway
    watchdog.

    *tie_break_seed* arms the kernel's tie-break perturbation mode
    (:meth:`Simulator.perturb_tie_breaks`) before the stack is
    assembled: same-instant event order is permuted by the seed, and a
    hazard-free model must produce byte-identical results for every
    seed.  Used by the ``cedar-repro race`` sanitizer.

    *iteration_events* also records the per-iteration pickup and
    iteration events; the analysis reads only ``result.hpm_summary``.
    """
    sim = Simulator(trace_sink=obs.sink if obs is not None else None)
    if tie_break_seed is not None:
        sim.perturb_tie_breaks(tie_break_seed)
    cfg = config if config is not None else paper_configuration(n_processors)
    machine = CedarMachine(sim, cfg)
    hpm = CedarHpm(sim, iteration_events=iteration_events)
    board = ActivityBoard(sim, cfg)
    statfx = Statfx(sim, board, interval_ns=statfx_interval_ns)
    statfx.start()
    kernel = XylemKernel(sim, cfg, os_params or XylemParams(), hpm=hpm)
    runtime = CedarFortranRuntime(
        sim, machine, kernel, hpm=hpm, board=board, params=rt_params
    )
    if pre_run_hook is not None:
        pre_run_hook(sim, machine, kernel, runtime)
    main = runtime.run_program(phases)
    # Host timing is routed through repro.obs.hostclock (CDR001): wall
    # time is reported beside the simulated clock, never mixed into it.
    with WallTimer() as wall:
        ct_ns = sim.run(until=main, max_events=max_events, max_sim_time=max_sim_time)
    sections = kernel.critical_sections
    load = machine.load
    result = RunResult(
        app_name=app_name,
        config=cfg,
        scale=scale,
        extrapolation=extrapolation,
        ct_ns=ct_ns,
        events=hpm.offload(),
        accounting=kernel.accounting,
        fault_stats=kernel.vm.stats,
        os_params=kernel.params,
        mem_ledger=machine.mem_ledger,
        runtime_stats=runtime.stats,
        statfx_samples=statfx.samples,
        statfx_sums=statfx.sums,
        ce_busy_ns=tuple(board.busy_ns(ce) for ce in range(cfg.n_processors)),
        load_high_water=load.high_water,
        cluster_load_high_water=tuple(load.cluster_high_water),
        load_mean=load.time_weighted_mean(),
        ccbus=tuple(
            (cluster.ccbus.dispatches, cluster.ccbus.synchronisations)
            for cluster in machine.clusters
        ),
        global_lock=_lock_counts(sections.global_lock),
        cluster_locks=tuple(_lock_counts(lock) for lock in sections.cluster_locks),
        hpm_resolution_ns=hpm.resolution_ns,
        hpm_summary=hpm.summary,
        wall_s=wall.elapsed_s,
        kernel_stats={
            "pool.timeouts_created": sim.timeouts_created,
            "pool.timeouts_reused": sim.timeouts_reused,
            "pool.ticks_rearmed": sim.ticks_rearmed,
        },
    )
    if obs is not None:
        obs.collect(result)
    return result


def _lock_counts(lock: KernelLock) -> tuple[int, int]:
    return lock.acquisitions, lock.contended_acquisitions


def run_application(
    app: AppModel,
    n_processors: int,
    scale: float = DEFAULT_SCALE,
    config: CedarConfig | None = None,
    os_params: XylemParams | None = None,
    rt_params: RuntimeParams | None = None,
    statfx_interval_ns: int = 200_000,
    obs: "Observability | None" = None,
    pre_run_hook: PreRunHook | None = None,
    max_events: int | None = None,
    max_sim_time: int | None = None,
    tie_break_seed: int | None = None,
    iteration_events: bool = False,
) -> RunResult:
    """Run an application model at *scale* on a paper configuration.

    This is the main public entry point of the reproduction::

        from repro.apps import flo52
        from repro.core import run_application

        result = run_application(flo52(), n_processors=32, scale=0.02)
        print(result.ct_seconds)
    """
    phases = app.phases(scale)
    return run_phases(
        phases,
        n_processors,
        app_name=app.name,
        scale=scale,
        extrapolation=app.extrapolation(scale),
        config=config,
        os_params=os_params,
        rt_params=rt_params,
        statfx_interval_ns=statfx_interval_ns,
        obs=obs,
        pre_run_hook=pre_run_hook,
        max_events=max_events,
        max_sim_time=max_sim_time,
        tie_break_seed=tie_break_seed,
        iteration_events=iteration_events,
    )
