"""Wiring between the simulation stack and the metrics registry.

:class:`Observability` is the one object callers hand to
:func:`repro.core.runner.run_application` / ``run_phases``: it owns the
:class:`~repro.obs.registry.MetricsRegistry` and the optional kernel
sinks (process profiler, kernel trace buffer).  After the run the
collector functions harvest every always-on counter the stack keeps --
the machine's memory ledger, the load tracker, the packet-level bank
and switch statistics when present, the Xylem accounting ledger and
fault counters, the runtime protocol counters, the activity board and
the ``cedarhpm`` buffer -- into hierarchical metric names:

===========  ===========================================================
prefix       contents
===========  ===========================================================
``memory.``  per-cluster burst busy/ideal/stall time, per-bank service
             time and queue high-water (packet-level runs)
``network.`` streaming-CE load, scalar round trips, per-port switch
             traffic and queue depth high-water (packet-level runs)
``xylem.``   per-activity OS time and counts, page faults, kernel-lock
             spin
``runtime.`` loop protocol counters, CC-bus traffic, per-CE busy time,
             measured concurrency
``hpm.``     monitor buffer fill, drops, per-event-type counts
``kernel.``  event-kernel fast paths: Timeout-pool reuse counters and
             the batched/exact memory transaction split
``run.``     completion time, host wall time, event counts
===========  ===========================================================
"""

from __future__ import annotations

from collections import Counter as _TallyCounter
from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.obs.profile import ProcessProfiler
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import KernelTraceBuffer, MultiSink, TraceSink

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.runner import RunResult
    from repro.hpm.events import TraceEvent
    from repro.hpm.monitor import CedarHpm
    from repro.parallel.snapshot import HpmView

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
    machine = result.machine
    ledger = machine.mem_ledger
    for cluster in range(result.config.n_clusters):
        prefix = f"memory.cluster{cluster}"
        reg.counter(f"{prefix}.busy_ns").inc(ledger.busy_ns[cluster])
        reg.counter(f"{prefix}.ideal_ns").inc(ledger.ideal_ns[cluster])
        reg.counter(f"{prefix}.stall_ns").inc(ledger.stall_ns(cluster))
        reg.counter(f"{prefix}.bursts").inc(ledger.bursts[cluster])
        reg.counter(f"{prefix}.words").inc(ledger.words[cluster])
    # Packet-level bank detail, when the packet memory system was used.
    memory = machine._memory
    if memory is not None and memory.stats.requests > 0:
        for bank in range(result.config.n_memory_modules):
            prefix = f"memory.bank{bank}"
            reg.counter(f"{prefix}.busy_ns").inc(memory.bank_busy_ns[bank])
            reg.counter(f"{prefix}.requests").inc(memory.bank_requests[bank])
            gauge = reg.gauge(f"{prefix}.queue_depth")
            gauge.set(memory.bank_queue_high_water[bank])
        reg.counter("memory.packet.requests").inc(memory.stats.requests)
        reg.counter("memory.packet.completions").inc(memory.stats.completions)
        reg.gauge("memory.packet.mean_round_trip_ns").set(
            memory.stats.mean_round_trip_ns
        )


def _collect_network(result: "RunResult", reg: MetricsRegistry) -> None:
    machine = result.machine
    load = machine.load
    ledger = machine.mem_ledger
    reg.gauge("network.streaming_ces.high_water").set(load.high_water)
    reg.gauge("network.streaming_ces.time_weighted_mean").set(
        load.time_weighted_mean()
    )
    for cluster in range(result.config.n_clusters):
        reg.gauge(f"network.cluster{cluster}.streaming_ces.high_water").set(
            load.cluster_high_water[cluster]
        )
    reg.counter("network.scalar_round_trips").inc(ledger.scalar_round_trips)
    reg.counter("network.scalar_round_trip_ns").inc(ledger.scalar_round_trip_ns)
    memory = machine._memory
    if memory is None:
        return
    for direction, net in (("fwd", memory.forward), ("bwd", memory.backward)):
        stats = net.stats
        if stats.packets_injected == 0:
            continue
        reg.counter(f"network.{direction}.packets_injected").inc(stats.packets_injected)
        reg.counter(f"network.{direction}.packets_delivered").inc(
            stats.packets_delivered
        )
        reg.gauge(f"network.{direction}.mean_latency_ns").set(stats.mean_latency_ns)
        for (stage, switch, port), count in sorted(stats.port_traffic.items()):
            reg.counter(
                f"network.{direction}.stage{stage}.sw{switch}.port{port}.forwarded"
            ).inc(count)
        for (stage, switch, port), depth in sorted(stats.queue_high_water.items()):
            reg.gauge(
                f"network.{direction}.stage{stage}.sw{switch}.port{port}.queue_depth"
            ).set(depth)


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
    sections = result.kernel.critical_sections
    reg.counter("xylem.locks.global.acquisitions").inc(
        sections.global_lock.acquisitions
    )
    reg.counter("xylem.locks.global.contended").inc(
        sections.global_lock.contended_acquisitions
    )
    cluster_acqs = sum(lock.acquisitions for lock in sections.cluster_locks)
    cluster_cont = sum(
        lock.contended_acquisitions for lock in sections.cluster_locks
    )
    reg.counter("xylem.locks.cluster.acquisitions").inc(cluster_acqs)
    reg.counter("xylem.locks.cluster.contended").inc(cluster_cont)


def _collect_runtime(result: "RunResult", reg: MetricsRegistry) -> None:
    stats = result.runtime.stats
    reg.counter("runtime.loops_posted").inc(stats.loops_posted)
    reg.counter("runtime.helper_joins").inc(stats.helper_joins)
    reg.counter("runtime.sdoall_pickups").inc(stats.sdoall_pickups)
    reg.counter("runtime.xdoall_pickups").inc(stats.xdoall_pickups)
    reg.counter("runtime.barriers").inc(stats.barriers)
    reg.counter("runtime.serial_sections").inc(stats.serial_sections)
    reg.counter("runtime.mc_loops").inc(stats.mc_loops)
    reg.counter("runtime.detaches").inc(stats.detaches)
    for cluster in result.machine.clusters:
        bus = cluster.ccbus
        prefix = f"runtime.ccbus.cluster{cluster.cluster_id}"
        reg.counter(f"{prefix}.dispatches").inc(bus.dispatches)
        reg.counter(f"{prefix}.synchronisations").inc(bus.synchronisations)
    board = result.board
    for ce_id in range(result.config.n_processors):
        reg.counter(f"runtime.ce{ce_id}.busy_ns").inc(board.busy_ns(ce_id))
    reg.gauge("runtime.concurrency.board_mean").set(board.mean_concurrency())
    reg.gauge("runtime.concurrency.statfx_total").set(
        result.statfx.total_concurrency()
    )


def collect_hpm_metrics(
    hpm: "CedarHpm | HpmView",
    reg: MetricsRegistry,
    events: "Sequence[TraceEvent] | None" = None,
) -> MetricsRegistry:
    """Harvest a ``cedarhpm`` monitor's buffer state into ``hpm.*``.

    *events* overrides the event list to tally (e.g. the off-loaded
    buffer kept on a :class:`~repro.core.runner.RunResult`).
    """
    tallied = events if events is not None else hpm.offload()
    reg.counter("hpm.events_recorded").inc(len(tallied))
    reg.counter("hpm.dropped_events").inc(hpm.dropped)
    if hpm.buffer_capacity is not None:
        reg.gauge("hpm.buffer_capacity").set(hpm.buffer_capacity)
    for name, count in sorted(
        _TallyCounter(e.event_type.name.lower() for e in tallied).items()
    ):
        reg.counter(f"hpm.events.{name}").inc(count)
    return reg


def _collect_kernel(result: "RunResult", reg: MetricsRegistry) -> None:
    """Fold ``RunResult.kernel_stats`` into ``kernel.*`` metrics.

    Ratio-valued entries (``*_fraction``) become gauges; everything
    else is a monotone counter.
    """
    for key, value in sorted(result.kernel_stats.items()):
        name = f"kernel.{key}"
        if key.endswith("_fraction"):
            reg.gauge(name).set(value)
        else:
            reg.counter(name).inc(value)


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
    if result.hpm is not None:
        collect_hpm_metrics(result.hpm, reg, events=result.events)
    return reg
