"""Experiment runner: execute an application model on a configuration.

Assembles the full stack -- simulator, machine, Xylem kernel, cedarhpm
monitor, activity board, statfx sampler, runtime library -- runs the
program in a dedicated single-user setting (only the target application
and the OS, as in the paper), and returns a :class:`RunResult`: the
run's measured record, harvested from the stack once the event loop
stops.  The record holds plain data only, so the same object feeds the
tables, crosses a process pool and lives in the result cache; the stack
itself is dropped.  A caller that needs the live stack (a fault
injector, a test probing internals) gets it through *pre_run_hook*.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.apps.base import AppModel
from repro.hardware.config import CedarConfig, paper_configuration
from repro.hardware.machine import CedarMachine, MemoryLedger
from repro.hpm.activity import ActivityBoard
from repro.hpm.events import EventList
from repro.hpm.monitor import CedarHpm
from repro.hpm.statfx import Statfx
from repro.obs.hostclock import WallTimer
from repro.runtime.library import CedarFortranRuntime, RuntimeStats
from repro.runtime.loops import Phase
from repro.runtime.params import RuntimeParams
from repro.sim import Simulator
from repro.xylem.accounting import TimeAccounting
from repro.xylem.kernel import XylemKernel
from repro.xylem.locks import KernelLock
from repro.xylem.params import XylemParams
from repro.xylem.vm import FaultStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import FaultLedger
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
    """Everything measured during one application run.

    Plain, picklable data only: the values every table, figure and
    metrics collector reads, harvested once when the event loop stops.
    """

    app_name: str
    config: CedarConfig
    scale: float
    #: Multiplier from simulated totals to full-scale totals.
    extrapolation: float
    #: Simulated completion time in nanoseconds (not extrapolated).
    ct_ns: int
    #: The off-loaded cedarhpm trace buffer: the monitor's own columnar
    #: :class:`~repro.hpm.events.EventList`.
    events: EventList
    accounting: TimeAccounting
    fault_stats: FaultStats
    #: The Xylem OS parameters of the run (``os_params.seed`` seeds the
    #: OS jitter stream).
    os_params: XylemParams
    #: The machine's global-memory ledger.
    mem_ledger: MemoryLedger
    #: The runtime library's protocol counters.
    runtime_stats: RuntimeStats
    #: statfx: samples taken and each cluster's sum of sampled counts.
    statfx_samples: int
    statfx_sums: tuple[int, ...]
    #: Activity board: each CE's active time over the run.
    ce_busy_ns: tuple[int, ...]
    #: Streaming-CE load tracker: high-water marks (machine-wide and per
    #: cluster) and the time-weighted mean.
    load_high_water: int
    cluster_load_high_water: tuple[int, ...]
    load_mean: float
    #: Per-cluster CC-bus ``(dispatches, synchronisations)``.
    ccbus: tuple[tuple[int, int], ...]
    #: Kernel locks' ``(acquisitions, contended acquisitions)``: the
    #: global lock and each cluster lock.
    global_lock: tuple[int, int]
    cluster_locks: tuple[tuple[int, int], ...]
    #: The cedarhpm monitor's timestamp resolution and its pickup and
    #: iteration summary, ``[intervals, ns]`` by ``(task, kind,
    #: construct)``.
    hpm_resolution_ns: int
    hpm_summary: dict
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
    #: The fault injector's ledger of a fault-campaign run (``None``
    #: for a healthy run).  Not part of the result fingerprint.
    fault_ledger: "FaultLedger | None" = None
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

    def cluster_concurrency(self, cluster_id: int) -> float:
        """statfx-sampled average concurrency on one cluster."""
        if self.statfx_samples == 0:
            return 0.0
        return self.statfx_sums[cluster_id] / self.statfx_samples

    def total_concurrency(self) -> float:
        """Sum of per-cluster sampled concurrencies (the paper's value)."""
        return sum(
            self.cluster_concurrency(c) for c in range(len(self.statfx_sums))
        )

    def mean_concurrency(self, cluster_id: int | None = None) -> float:
        """Exact time-weighted average active-CE count over the run.

        Restricted to one cluster when *cluster_id* is given, otherwise
        over the whole machine.  The loop stops when the program ends,
        so the completion time is the board's end time.
        """
        if self.ct_ns == 0:
            return 0.0
        busy = self.ce_busy_ns
        if cluster_id is not None:
            per = self.config.ces_per_cluster
            busy = busy[cluster_id * per : (cluster_id + 1) * per]
        return sum(busy) / self.ct_ns

    def __getstate__(self) -> dict:
        """Pickle state: the record carries what its tables read.

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

        carried = {}
        try:
            carried["loop_index"] = loop_index(self)
            carried["user_breakdowns"] = user_breakdowns(self)
        except ValueError:
            pass
        return {**self.__dict__, "_cache": carried}


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
