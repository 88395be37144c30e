"""Experiment runner: execute an application model on a configuration.

Assembles the full stack -- simulator, machine, Xylem kernel, cedarhpm
monitor, activity board, statfx sampler, runtime library -- runs the
program in a dedicated single-user setting (only the target application
and the OS, as in the paper), and returns a :class:`RunResult` carrying
everything the analysis modules need.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.apps.base import AppModel
from repro.hardware.config import CedarConfig, paper_configuration
from repro.hardware.machine import CedarMachine
from repro.hpm.activity import ActivityBoard
from repro.hpm.events import TraceEvent
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
    #: The off-loaded cedarhpm trace buffer: a list on a live run, a
    #: lazily decoded :class:`~repro.hpm.events.EventList` on a snapshot.
    events: Sequence[TraceEvent]
    accounting: TimeAccounting
    fault_stats: FaultStats
    statfx: Statfx
    board: ActivityBoard
    machine: CedarMachine
    kernel: XylemKernel
    runtime: CedarFortranRuntime
    #: The cedarhpm monitor itself (buffer capacity, drop counts).
    hpm: CedarHpm | None = None
    #: Host wall-clock seconds spent inside the event loop.
    wall_s: float = 0.0
    #: Domain-tagged BLAKE2 digest of the processed-event order, filled
    #: in by the ``repro.parallel`` executor (``None`` for plain runs).
    #: Compare with :func:`repro.analyze.same_schedule`, never ``==``
    #: across recordings: the ``cedar-repro/schedule/vN`` prefix
    #: versions the event-stream definition.
    schedule_hash: str | None = None
    #: Kernel fast-path counters harvested at end of run: Timeout-pool
    #: reuse (``pool.*``), the batched/exact memory transaction split
    #: (``fastpath.*``), the runtime/OS-layer fast-path activity
    #: (``runtime.fastpath.*`` / ``xylem.fastpath.*``).  Keys match the
    #: ``kernel.*`` metric suffixes emitted by
    #: :mod:`repro.obs.instrument`.
    kernel_stats: dict = field(default_factory=dict)
    #: Which execution mode each acceleration layer ran in:
    #: ``memory`` / ``runtime`` / ``xylem`` are ``"batched"`` or
    #: ``"exact"``, and ``statfx`` is ``"push"`` or ``"exact"``.  Every
    #: mode produces bit-identical results by construction; the record
    #: exists so run reports and regression triage can see which paths
    #: were active.
    fastpath_modes: dict = field(default_factory=dict)

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
        """Pickle state: a snapshot carries its loop index, nothing else cached.

        Tables 3 and 4 read a run's trace only through
        :func:`~repro.core.concurrency.loop_index`, so the index is
        built where the result is pickled -- in the pool worker, or at
        a cache put -- and a served result answers both tables without
        decoding its events.  A trace the scan rejects carries no
        index: the reader rescans it and raises as the scan did.
        """
        from repro.core.concurrency import loop_index
        from repro.parallel.snapshot import is_snapshot

        carried = {}
        if is_snapshot(self):
            try:
                carried["loop_index"] = loop_index(self)
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
    """
    sim = Simulator(trace_sink=obs.sink if obs is not None else None)
    if tie_break_seed is not None:
        sim.perturb_tie_breaks(tie_break_seed)
    cfg = config if config is not None else paper_configuration(n_processors)
    machine = CedarMachine(sim, cfg)
    hpm = CedarHpm(sim)
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
        kernel_stats=_harvest_kernel_stats(sim, machine, kernel, runtime),
        fastpath_modes=_fastpath_modes(machine, kernel, runtime, statfx),
    )
    if obs is not None:
        obs.collect(result)
    return result


def _harvest_kernel_stats(
    sim: Simulator,
    machine: CedarMachine,
    kernel: XylemKernel,
    runtime: CedarFortranRuntime,
) -> dict:
    """Kernel fast-path counters for ``RunResult.kernel_stats``."""
    stats = {
        "pool.timeouts_created": sim.timeouts_created,
        "pool.timeouts_reused": sim.timeouts_reused,
        "pool.ticks_rearmed": sim.ticks_rearmed,
    }
    memory = machine._memory
    if memory is not None:
        fp = memory.fastpath.stats
        stats.update(
            {
                "fastpath.batched_transactions": fp.batched_transactions,
                "fastpath.exact_transactions": fp.exact_transactions,
                "fastpath.batched_words": fp.batched_words,
                "fastpath.exact_words": fp.exact_words,
                "fastpath.fallback_fault": fp.fallback_fault,
                "fastpath.fallback_saturation": fp.fallback_saturation,
                "fastpath.batched_fraction": fp.batched_fraction,
            }
        )
    rfp = runtime.fastpath.stats
    stats.update(
        {
            "runtime.fastpath.lean_pickups": rfp.lean_pickups,
            "runtime.fastpath.exact_pickups": rfp.exact_pickups,
            "runtime.fastpath.lean_barrier_detaches": rfp.lean_barrier_detaches,
            "runtime.fastpath.exact_barrier_detaches": rfp.exact_barrier_detaches,
            "runtime.fastpath.fused_spawns": rfp.fused_spawns,
            "runtime.fastpath.lean_fraction": rfp.lean_fraction,
        }
    )
    xfp = kernel.fastpath.stats
    stats.update(
        {
            "xylem.fastpath.fused_spawns": xfp.fused_spawns,
            "xylem.fastpath.warm_elisions": xfp.warm_elisions,
            "xylem.fastpath.exact_spawns": xfp.exact_spawns,
        }
    )
    return stats


def _fastpath_modes(
    machine: CedarMachine,
    kernel: XylemKernel,
    runtime: CedarFortranRuntime,
    statfx: Statfx,
) -> dict:
    """Which mode each acceleration layer ran in (``RunResult.fastpath_modes``)."""
    memory = machine._memory
    return {
        "memory": memory.fastpath.mode if memory is not None else "exact",
        "runtime": runtime.fastpath.mode,
        "xylem": kernel.fastpath.mode,
        "statfx": statfx.mode or "exact",
    }


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
    )
