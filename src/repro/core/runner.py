"""Experiment runner: execute an application model on a configuration.

Assembles the full stack -- simulator, machine, Xylem kernel, cedarhpm
monitor, activity board, statfx sampler, runtime library -- runs the
program in a dedicated single-user setting (only the target application
and the OS, as in the paper), and returns a :class:`RunResult` carrying
everything the analysis modules need.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.apps.base import AppModel
from repro.hardware.config import CedarConfig, paper_configuration
from repro.hardware.machine import CedarMachine
from repro.hpm.activity import ActivityBoard
from repro.hpm.events import EventList
from repro.hpm.monitor import CedarHpm
from repro.hpm.statfx import Statfx
from repro.obs.hostclock import WallTimer
from repro.runtime.library import CedarFortranRuntime
from repro.runtime.loops import Phase
from repro.runtime.params import RuntimeParams
from repro.sim import Simulator
from repro.xylem.accounting import TimeAccounting
from repro.xylem.kernel import XylemKernel
from repro.xylem.params import XylemParams
from repro.xylem.vm import FaultStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.instrument import Observability

__all__ = ["PreRunHook", "RunResult", "run_application", "run_phases"]

#: Callback invoked after the stack is assembled, before the event loop
#: starts; used by ``repro.faults`` to arm fault-injection processes.
PreRunHook = Callable[
    [Simulator, CedarMachine, XylemKernel, CedarFortranRuntime], None
]

#: Default workload scale: 1/50 of the full-scale step counts keeps a
#: five-application, five-configuration sweep in the tens of seconds.
DEFAULT_SCALE = 0.02


@dataclass
class RunResult:
    """Everything measured during one application run."""

    app_name: str
    config: CedarConfig
    scale: float
    #: Multiplier from simulated totals to full-scale totals.
    extrapolation: float
    #: Simulated completion time in nanoseconds (not extrapolated).
    ct_ns: int
    #: The off-loaded cedarhpm trace buffer: the monitor's own columnar
    #: :class:`~repro.hpm.events.EventList`, the same object on a live
    #: run, its snapshot and a pickled copy (as ``hpm.events``).
    events: EventList
    accounting: TimeAccounting
    fault_stats: FaultStats
    statfx: Statfx
    board: ActivityBoard
    machine: CedarMachine
    kernel: XylemKernel
    runtime: CedarFortranRuntime
    #: The cedarhpm monitor itself (resolution, trace buffer, summary).
    hpm: CedarHpm
    #: Host wall-clock seconds spent inside the event loop.
    wall_s: float = 0.0
    #: Domain-tagged BLAKE2 digest of the processed-event order, filled
    #: in by the ``repro.parallel`` executor (``None`` for plain runs).
    #: Compare with :func:`repro.analyze.same_schedule`, never ``==``
    #: across recordings: the ``cedar-repro/schedule/vN`` prefix
    #: versions the event-stream definition.
    schedule_hash: str | None = None
    #: Kernel fast-path counters harvested at end of run: the
    #: Timeout-pool reuse counters (``pool.*``).  Keys match the
    #: ``kernel.*`` metric suffixes emitted by
    #: :mod:`repro.obs.instrument`.
    kernel_stats: dict = field(default_factory=dict)
    #: Always ``{"statfx": "push"}``: statfx has one sampler.  Only the
    #: benchmark harness (``bench/``) reads this field; it goes in the
    #: benchmark refresh, together with ``hpm.statfx_push_cells`` and
    #: the ``compiled_loop_active`` stub.
    fastpath_modes: dict = field(default_factory=lambda: {"statfx": "push"})

    #: Lazily-filled cache used by the analysis helpers.
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def n_processors(self) -> int:
        """Processors in the configuration."""
        return self.config.n_processors

    @property
    def ct_seconds(self) -> float:
        """Extrapolated full-scale completion time in seconds."""
        return self.ct_ns * self.extrapolation / 1e9

    def seconds(self, ns: float) -> float:
        """Extrapolate a simulated nanosecond quantity to full-scale seconds."""
        return ns * self.extrapolation / 1e9

    def fraction_of_ct(self, ns: float) -> float:
        """Express a simulated nanosecond quantity as a fraction of CT."""
        if self.ct_ns == 0:
            return 0.0
        return ns / self.ct_ns

    def __getstate__(self) -> dict:
        """Pickle state: a snapshot carries what its tables read, nothing else.

        Tables 3 and 4 read a run's trace only through
        :func:`~repro.core.concurrency.loop_index`, and Figures 5-9
        only through :func:`~repro.core.breakdown.user_breakdowns`, so
        both are built where the result is pickled -- in the pool
        worker, or at a cache put -- and a served result answers them
        without scanning its events.  A trace the scan rejects carries
        neither: the reader rescans it and raises as the scan did.
        """
        from repro.core.breakdown import user_breakdowns
        from repro.core.concurrency import loop_index
        from repro.parallel.snapshot import is_snapshot

        carried = {}
        if is_snapshot(self):
            try:
                carried["loop_index"] = loop_index(self)
                carried["user_breakdowns"] = user_breakdowns(self)
            except ValueError:
                pass
        return {**self.__dict__, "_cache": carried}

    def portable(self) -> "RunResult":
        """A detached, picklable copy of this result.

        Convenience wrapper over
        :func:`repro.parallel.snapshot.snapshot_result`: the copy can
        cross a process boundary or live in the on-disk result cache,
        and answers every analysis/metrics query identically.
        """
        from repro.parallel.snapshot import snapshot_result

        return snapshot_result(self)


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
    iteration events; the analysis reads only ``result.hpm.summary``.
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
    result = RunResult(
        app_name=app_name,
        config=cfg,
        scale=scale,
        extrapolation=extrapolation,
        ct_ns=ct_ns,
        events=hpm.offload(),
        accounting=kernel.accounting,
        fault_stats=kernel.vm.stats,
        statfx=statfx,
        board=board,
        machine=machine,
        kernel=kernel,
        runtime=runtime,
        hpm=hpm,
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
