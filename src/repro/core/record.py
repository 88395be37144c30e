"""The result record of one run, :class:`RunResult`.

The runner (:mod:`repro.core.runner`) harvests a :class:`RunResult`
from the stack once the event loop stops; the tables, the pool and the
result cache all read that one record.  This module and the types a
record carries (:class:`~repro.hardware.config.CedarConfig`,
:class:`~repro.hpm.events.EventList`, the accounting and stats records)
import no simulator code, so a process that only reads cached results
-- a warm ``tables`` -- unpickles them without loading the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.ledger import FaultLedger
    from repro.hardware.config import CedarConfig
    from repro.hardware.ledger import MemoryLedger
    from repro.hpm.events import EventList
    from repro.runtime.stats import RuntimeStats
    from repro.xylem.accounting import FaultStats, TimeAccounting
    from repro.xylem.params import XylemParams

__all__ = ["DEFAULT_SCALE", "RunResult"]

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
