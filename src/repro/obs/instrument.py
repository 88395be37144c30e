"""Wiring between the simulation stack and the metrics registry.

:class:`Observability` is the one object callers hand to
:func:`repro.core.runner.run_application` / ``run_phases``: it owns the
:class:`~repro.obs.registry.MetricsRegistry` and the optional kernel
sinks (process profiler, kernel trace buffer).  After the run the
collector functions fold every always-on counter the run's
:class:`~repro.core.runner.RunResult` record carries -- the memory
ledger, the load tracker's statistics, the Xylem accounting ledger and
fault counters, the runtime protocol counters, the activity board's
busy times and the ``cedarhpm`` buffer -- into hierarchical metric
names:

===========  ===========================================================
prefix       contents
===========  ===========================================================
``memory.``  per-cluster burst busy/ideal/stall time, bursts and words
``network.`` streaming-CE load and scalar round trips
``xylem.``   per-activity OS time and counts, page faults, kernel-lock
             spin
``runtime.`` loop protocol counters, CC-bus traffic, per-CE busy time,
             measured concurrency
``hpm.``     recorded events, per-event-type counts
``kernel.``  event-kernel fast paths: Timeout-pool reuse counters
``run.``     completion time, host wall time, event counts
===========  ===========================================================
"""

from __future__ import annotations

from collections import Counter as _TallyCounter
from typing import TYPE_CHECKING

from repro.hpm.events import EventType
from repro.obs.profile import ProcessProfiler
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import KernelTraceBuffer, MultiSink, TraceSink

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.runner import RunResult
    from repro.hpm.events import EventList

__all__ = [
    "Observability",
    "collect_run_metrics",
    "collect_hpm_metrics",
]


class Observability:
    """Bundle of observation facilities for one run.

    Parameters
    ----------
    profile:
        Attach a :class:`~repro.obs.profile.ProcessProfiler` to the
        kernel (per-process host wall time and simulated time).
    kernel_trace:
        Attach a :class:`~repro.obs.tracing.KernelTraceBuffer`
        recording structured kernel occurrences.
    kernel_trace_capacity:
        Buffer bound for the kernel trace.
    extra_sinks:
        Additional :class:`~repro.obs.tracing.TraceSink` instances to
        attach to the kernel for the run (e.g. the schedule-order
        :class:`~repro.analyze.sanitize.DeterminismSink`).
    """

    def __init__(
        self,
        profile: bool = False,
        kernel_trace: bool = False,
        kernel_trace_capacity: int = 100_000,
        extra_sinks: "list[TraceSink] | tuple[TraceSink, ...]" = (),
    ) -> None:
        self.registry = MetricsRegistry()
        self.profiler = ProcessProfiler() if profile else None
        self.kernel_trace = (
            KernelTraceBuffer(kernel_trace_capacity) if kernel_trace else None
        )
        self.extra_sinks: list[TraceSink] = list(extra_sinks)

    @property
    def sink(self) -> TraceSink | None:
        """The kernel sink to register, or ``None`` when nothing is on.

        ``None`` keeps the simulator's hot loop on its no-dispatch
        path, so a metrics-only :class:`Observability` costs nothing
        during the run.
        """
        sinks = [
            s
            for s in (self.profiler, self.kernel_trace, *self.extra_sinks)
            if s is not None
        ]
        if not sinks:
            return None
        if len(sinks) == 1:
            return sinks[0]
        return MultiSink(sinks)

    def collect(self, result: "RunResult") -> MetricsRegistry:
        """Harvest all of *result*'s counters into the registry."""
        return collect_run_metrics(result, self.registry)


# -- collectors -------------------------------------------------------------


def _collect_memory(result: "RunResult", reg: MetricsRegistry) -> None:
    ledger = result.mem_ledger
    for cluster in range(result.config.n_clusters):
        prefix = f"memory.cluster{cluster}"
        reg.counter(f"{prefix}.busy_ns").inc(ledger.busy_ns[cluster])
        reg.counter(f"{prefix}.ideal_ns").inc(ledger.ideal_ns[cluster])
        reg.counter(f"{prefix}.stall_ns").inc(ledger.stall_ns(cluster))
        reg.counter(f"{prefix}.bursts").inc(ledger.bursts[cluster])
        reg.counter(f"{prefix}.words").inc(ledger.words[cluster])


def _collect_network(result: "RunResult", reg: MetricsRegistry) -> None:
    ledger = result.mem_ledger
    reg.gauge("network.streaming_ces.high_water").set(result.load_high_water)
    reg.gauge("network.streaming_ces.time_weighted_mean").set(result.load_mean)
    for cluster in range(result.config.n_clusters):
        reg.gauge(f"network.cluster{cluster}.streaming_ces.high_water").set(
            result.cluster_load_high_water[cluster]
        )
    reg.counter("network.scalar_round_trips").inc(ledger.scalar_round_trips)
    reg.counter("network.scalar_round_trip_ns").inc(ledger.scalar_round_trip_ns)


def _collect_xylem(result: "RunResult", reg: MetricsRegistry) -> None:
    accounting = result.accounting
    for activity, total_ns in accounting.table2_ns().items():
        name = activity.name.lower()
        reg.counter(f"xylem.{name}.ns").inc(total_ns)
        count = sum(
            accounting.activity_count(c, activity)
            for c in range(result.config.n_clusters)
        )
        reg.counter(f"xylem.{name}.count").inc(count)
    from repro.xylem.categories import TimeCategory

    for cluster in range(result.config.n_clusters):
        reg.counter(f"xylem.cluster{cluster}.kspin_ns").inc(
            accounting.category_ns(cluster, TimeCategory.KSPIN)
        )
    faults = result.fault_stats
    reg.counter("xylem.pagefault.sequential").inc(faults.sequential)
    reg.counter("xylem.pagefault.concurrent").inc(faults.concurrent)
    reg.counter("xylem.pagefault.joined").inc(faults.joined)
    reg.counter("xylem.pagefault.evictions").inc(faults.evictions)
    reg.counter("xylem.pagefault.count").inc(faults.sequential + faults.concurrent)
    acquisitions, contended = result.global_lock
    reg.counter("xylem.locks.global.acquisitions").inc(acquisitions)
    reg.counter("xylem.locks.global.contended").inc(contended)
    reg.counter("xylem.locks.cluster.acquisitions").inc(
        sum(acqs for acqs, _ in result.cluster_locks)
    )
    reg.counter("xylem.locks.cluster.contended").inc(
        sum(cont for _, cont in result.cluster_locks)
    )


def _collect_runtime(result: "RunResult", reg: MetricsRegistry) -> None:
    stats = result.runtime_stats
    reg.counter("runtime.loops_posted").inc(stats.loops_posted)
    reg.counter("runtime.helper_joins").inc(stats.helper_joins)
    reg.counter("runtime.sdoall_pickups").inc(stats.sdoall_pickups)
    reg.counter("runtime.xdoall_pickups").inc(stats.xdoall_pickups)
    reg.counter("runtime.barriers").inc(stats.barriers)
    reg.counter("runtime.serial_sections").inc(stats.serial_sections)
    reg.counter("runtime.mc_loops").inc(stats.mc_loops)
    reg.counter("runtime.detaches").inc(stats.detaches)
    for cluster_id, (dispatches, syncs) in enumerate(result.ccbus):
        prefix = f"runtime.ccbus.cluster{cluster_id}"
        reg.counter(f"{prefix}.dispatches").inc(dispatches)
        reg.counter(f"{prefix}.synchronisations").inc(syncs)
    for ce_id, busy_ns in enumerate(result.ce_busy_ns):
        reg.counter(f"runtime.ce{ce_id}.busy_ns").inc(busy_ns)
    reg.gauge("runtime.concurrency.board_mean").set(result.mean_concurrency())
    reg.gauge("runtime.concurrency.statfx_total").set(result.total_concurrency())


def collect_hpm_metrics(events: "EventList", reg: MetricsRegistry) -> MetricsRegistry:
    """Harvest a ``cedarhpm`` trace buffer into ``hpm.*``.

    Counts the events by type from the buffer's type column, without
    building an event object.
    """
    reg.counter("hpm.events_recorded").inc(len(events))
    for name, count in sorted(
        (EventType(etype).name.lower(), count)
        for etype, count in _TallyCounter(events.types).items()
    ):
        reg.counter(f"hpm.events.{name}").inc(count)
    return reg


def _collect_kernel(result: "RunResult", reg: MetricsRegistry) -> None:
    """Fold ``RunResult.kernel_stats`` into ``kernel.*`` counters."""
    for key, value in sorted(result.kernel_stats.items()):
        reg.counter(f"kernel.{key}").inc(value)


def collect_run_metrics(
    result: "RunResult", registry: MetricsRegistry | None = None
) -> MetricsRegistry:
    """Populate a registry with every metric a finished run exposes."""
    reg = registry if registry is not None else MetricsRegistry()
    reg.counter("run.ct_ns").inc(result.ct_ns)
    reg.gauge("run.wall_s").set(result.wall_s)
    reg.gauge("run.n_processors").set(result.config.n_processors)
    _collect_memory(result, reg)
    _collect_network(result, reg)
    _collect_xylem(result, reg)
    _collect_runtime(result, reg)
    _collect_kernel(result, reg)
    collect_hpm_metrics(result.events, reg)
    return reg
