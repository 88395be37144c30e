"""The Xylem kernel model: daemons, CPIs, syscalls and gang execution.

Xylem is Cedar's Unix-derived operating system.  The pieces the paper's
measurements exercise, and which this model implements, are:

* **Gang-scheduled cluster execution** -- within a cluster all 8 CEs
  are gang scheduled; OS service that needs a single execution thread
  (context switches, some syscalls, concurrent page faults) gathers the
  CEs with a cross-processor interrupt (CPI), freezing user execution
  on that cluster for the service window.
* **Context switching** -- in a dedicated system, context switches
  happen when the application blocks for I/O or when the OS server
  performs bookkeeping (Section 5.1); modelled as a per-cluster daemon.
* **System calls** (cluster and global) and **asynchronous system
  traps**, each with their service cost and occasional CPI.
* **Time accounting** feeding the "Q"-style breakdown of Figure 3 and
  the Table 2 detail.

User CE processes run their compute through :meth:`XylemKernel.execute`
so that kernel freezes stretch user work, making the completion-time
breakdown self-consistent: cluster wall time = user + system +
interrupt + kspin.
"""

from __future__ import annotations

import hashlib
import random
from collections.abc import Generator

from repro.hardware.config import CedarConfig
from repro.hpm.events import EventType
from repro.hpm.monitor import CedarHpm
from repro.sim.core import Simulator
from repro.sim.errors import SimulationError
from repro.sim.resources import ArbitratedResource, Gate
from repro.xylem.accounting import TimeAccounting
from repro.xylem.categories import OsActivity
from repro.xylem.locks import CriticalSections
from repro.xylem.params import XylemParams
from repro.xylem.vm import VirtualMemory

__all__ = ["ClusterState", "XylemKernel"]

#: Arbitration keys for the per-cluster OS-service lock.  Each kind of
#: service section passes its own key so same-instant requests are
#: granted in a stable, named order rather than event-queue arrival
#: order (see :class:`repro.sim.ArbitratedResource`).  Only one section
#: of each kind can be pending per cluster (the daemons are singletons;
#: syscall/fault CPI gathers thin to well-spaced instants), so the keys
#: stay unique among simultaneous requesters.
_SERVICE_CTX_GATHER = 0
_SERVICE_CTX_SWITCH = 1
_SERVICE_SCHED_GATHER = 2
_SERVICE_SCHED_CRSECT = 3
_SERVICE_AST = 4
_SERVICE_CPI = 5


class ClusterState:
    """Per-cluster gang-execution state: runnable gate + freeze ledger."""

    def __init__(self, sim: Simulator, cluster_id: int) -> None:
        self.sim = sim
        self.cluster_id = cluster_id
        self.runnable = Gate(sim, open_=True)
        self._freeze_depth = 0
        self._frozen_since = 0
        self._frozen_cum_ns = 0

    @property
    def frozen(self) -> bool:
        """Whether the cluster is currently frozen for OS service."""
        return self._freeze_depth > 0

    def freeze(self) -> None:
        """Suspend user execution on this cluster (nestable)."""
        if self._freeze_depth == 0:
            self.runnable.close()
            self._frozen_since = self.sim.now
        self._freeze_depth += 1

    def unfreeze(self) -> None:
        """Resume user execution once every freezer has released."""
        if self._freeze_depth <= 0:
            raise ValueError("unfreeze() without matching freeze()")
        self._freeze_depth -= 1
        if self._freeze_depth == 0:
            self._frozen_cum_ns += self.sim.now - self._frozen_since
            self.runnable.open()

    def frozen_cum_ns(self) -> int:
        """Total frozen time so far (including a current freeze)."""
        total = self._frozen_cum_ns
        if self._freeze_depth > 0:
            total += self.sim.now - self._frozen_since
        return total


class XylemKernel:
    """The modelled operating system of one Cedar machine."""

    def __init__(
        self,
        sim: Simulator,
        config: CedarConfig,
        params: XylemParams | None = None,
        hpm: CedarHpm | None = None,
    ) -> None:
        self.sim = sim
        self.config = config
        self.params = params or XylemParams()
        self.hpm = hpm
        self.accounting = TimeAccounting(config)
        self.critical_sections = CriticalSections(sim, self.accounting, config.n_clusters)
        self.clusters = [ClusterState(sim, i) for i in range(config.n_clusters)]
        self.vm = VirtualMemory(
            sim,
            self.accounting,
            self.params,
            critical_sections=self.critical_sections,
            cpi_handler=self.cpi_gather,
        )
        # The jitter streams are part of the calibrated operating point
        # (EXPERIMENTS.md): swapping the RNG backend or the keying would
        # shift every Table 1-4 value.  Each daemon owns an independent
        # stream keyed by (seed, kind, cluster) -- see
        # :meth:`jitter_stream` -- so a draw depends only on the owning
        # daemon's own wakeup count, never on how concurrently-armed
        # daemons interleave.  A shared stream consumed in schedule
        # order would make every jitter value depend on same-timestamp
        # tie-break order (the hazard ``repro.analyze.race`` hunts).
        self._seed = self.params.seed
        self._daemons_started = False
        self._syscall_counter = 0
        # One OS-server thread per cluster: every service section that
        # freezes user work (CPI gathers, the context-switch body, the
        # sched daemon's critical-section visit, ASTs) serialises here.
        # Disjoint freeze windows make the accounting exact -- time
        # charged to a cluster's ledger equals the wall time its user
        # work is frozen, so :meth:`execute` repays OS overhead exactly
        # once -- and the arbitrated grant keeps same-instant service
        # requests tie-stable (see :data:`_SERVICE_CTX_GATHER` ff.).
        self._service_locks = [
            ArbitratedResource(sim, capacity=1) for _ in range(config.n_clusters)
        ]
        # CEs the OS has deconfigured (fault injection); the runtime
        # consults ce_available() when spreading / self-scheduling work.
        self._deconfigured_ces: set[int] = set()

    # -- CE configuration ---------------------------------------------------

    def deconfigure_ce(self, ce_id: int) -> None:
        """Remove one CE from the configuration (Xylem dropping a CE).

        The runtime's self-scheduling loops simply stop handing the CE
        iterations; already-running chunks finish.  Refuses to empty a
        cluster: Xylem cannot gang-schedule a cluster with no CEs.
        """
        if not 0 <= ce_id < self.config.n_processors:
            raise ValueError(f"ce_id {ce_id} out of range")
        per = self.config.ces_per_cluster
        cluster_id = ce_id // per
        cluster_ces = range(cluster_id * per, (cluster_id + 1) * per)
        survivors = [c for c in cluster_ces if c not in self._deconfigured_ces and c != ce_id]
        if not survivors:
            raise SimulationError(
                f"deconfiguring CE {ce_id} would leave cluster {cluster_id} "
                "with no configured CEs"
            )
        self._deconfigured_ces.add(ce_id)

    def reconfigure_ce(self, ce_id: int) -> None:
        """Return a previously deconfigured CE to service."""
        self._deconfigured_ces.discard(ce_id)

    def ce_available(self, ce_id: int) -> bool:
        """Whether *ce_id* is configured (available for new work)."""
        return ce_id not in self._deconfigured_ces

    def available_ces(self, cluster_id: int) -> list[int]:
        """Configured CE ids of one cluster, in id order."""
        per = self.config.ces_per_cluster
        return [
            c
            for c in range(cluster_id * per, (cluster_id + 1) * per)
            if c not in self._deconfigured_ces
        ]

    # -- instrumentation ----------------------------------------------------

    def _record(self, event_type: EventType, cluster_id: int) -> None:
        if self.hpm is not None:
            # OS events are recorded against the cluster's first CE.
            self.hpm.record(event_type, cluster_id * self.config.ces_per_cluster)

    # -- daemons -------------------------------------------------------------

    def start_daemons(self) -> None:
        """Launch the per-cluster OS-server daemons (idempotent)."""
        if self._daemons_started:
            return
        self._daemons_started = True
        for cluster_id in range(self.config.n_clusters):
            self.sim.process(self._ctx_daemon(cluster_id), name=f"ctx-daemon-{cluster_id}")
            self.sim.process(self._ast_daemon(cluster_id), name=f"ast-daemon-{cluster_id}")
            self.sim.process(self._sched_daemon(cluster_id), name=f"sched-daemon-{cluster_id}")

    def jitter_stream(self, kind: str, cluster_id: int) -> random.Random:
        """Independent jitter RNG for one ``(daemon kind, cluster)``.

        The stream is keyed -- not shared: its seed is a BLAKE2 digest
        of ``(XylemParams.seed, kind, cluster_id)``, so the n-th draw of
        one daemon is a pure function of its own wakeup count.  With a
        single sequential stream, the schedule order of *other* daemons
        would decide which draw each consumer receives, and a
        same-``(time, priority)`` tie-break permutation
        (``cedar-repro race``) would cascade into different intervals
        everywhere.
        """
        material = f"{self._seed}|{kind}|{cluster_id}".encode()
        digest = hashlib.blake2b(material, digest_size=8).digest()
        # Seeded from run parameters via the keyed digest above; the
        # stdlib Mersenne Twister is the calibrated backend.
        return random.Random(int.from_bytes(digest, "big"))  # cdr: noqa[CDR002]

    def _jittered(self, rng: random.Random, interval_ns: int) -> int:
        jitter = self.params.interval_jitter
        if jitter == 0.0:
            return interval_ns
        factor = 1.0 + rng.uniform(-jitter, jitter)
        return max(1, int(interval_ns * factor))

    def _ctx_daemon(self, cluster_id: int) -> Generator:
        """OS-server bookkeeping: periodic context switches + CPIs."""
        params = self.params
        rng = self.jitter_stream("ctx", cluster_id)
        while True:
            yield self._jittered(rng, params.ctx_interval_ns)
            yield from self.context_switch(cluster_id)

    def _sched_daemon(self, cluster_id: int) -> Generator:
        """Explicit resource-scheduling requests.

        The paper lists resource scheduling among the CPI sources
        (Section 5.1); gang-scheduled helpers and the OS server trade
        cluster resources at a steady background rate, each request
        gathering a single execution thread and touching a cluster
        critical section (occasionally a global one).
        """
        params = self.params
        rng = self.jitter_stream("sched", cluster_id)
        count = 0
        while True:
            yield self._jittered(rng, params.sched_interval_ns)
            self._record(EventType.SCHED_ENTER, cluster_id)
            yield from self.cpi_gather(cluster_id, key=_SERVICE_SCHED_GATHER)
            state = self.clusters[cluster_id]
            lock = self._service_locks[cluster_id]
            request = lock.request(key=_SERVICE_SCHED_CRSECT)
            yield request
            state.freeze()
            try:
                yield from self.critical_sections.access_cluster(
                    cluster_id, params.crsect_cluster_cost_ns
                )
                count += 1
                if count % 8 == 0:
                    yield from self.critical_sections.access_global(
                        cluster_id, params.crsect_global_cost_ns
                    )
            finally:
                state.unfreeze()
                lock.release(request)
            self._record(EventType.SCHED_EXIT, cluster_id)

    def _ast_daemon(self, cluster_id: int) -> Generator:
        """Asynchronous system traps: rare, cheap."""
        params = self.params
        rng = self.jitter_stream("ast", cluster_id)
        while True:
            yield self._jittered(rng, params.ast_interval_ns)
            self._record(EventType.AST_ENTER, cluster_id)
            state = self.clusters[cluster_id]
            lock = self._service_locks[cluster_id]
            request = lock.request(key=_SERVICE_AST)
            yield request
            state.freeze()
            try:
                yield params.ast_cost_ns
                self.accounting.charge(cluster_id, OsActivity.AST, params.ast_cost_ns)
            finally:
                state.unfreeze()
                lock.release(request)
            self._record(EventType.AST_EXIT, cluster_id)

    # -- OS services ------------------------------------------------------------

    def context_switch(self, cluster_id: int) -> Generator:
        """Process: one context switch on *cluster_id*.

        Gathers a single execution thread via CPI, then performs the
        switch (register saves/restores, bookkeeping, a couple of
        cluster critical-section accesses), freezing user work.
        """
        params = self.params
        self._record(EventType.CTX_SWITCH_ENTER, cluster_id)
        yield from self.cpi_gather(cluster_id, key=_SERVICE_CTX_GATHER)
        state = self.clusters[cluster_id]
        lock = self._service_locks[cluster_id]
        request = lock.request(key=_SERVICE_CTX_SWITCH)
        yield request
        state.freeze()
        try:
            yield params.ctx_cost_ns
            self.accounting.charge(cluster_id, OsActivity.CTX, params.ctx_cost_ns)
            for _ in range(params.crsect_per_ctx):
                yield from self.critical_sections.access_cluster(
                    cluster_id, params.crsect_cluster_cost_ns
                )
        finally:
            state.unfreeze()
            lock.release(request)
        self._record(EventType.CTX_SWITCH_EXIT, cluster_id)

    def cpi_gather(self, cluster_id: int, key: int = _SERVICE_CPI) -> Generator:
        """Process: gather a single CE execution thread on a cluster.

        Every CE saves/restores registers and does its accounting
        before synchronising over the intra-cluster bus (Section 5.1);
        the CEs do this in parallel, so the cluster is frozen for one
        per-CE service time plus the bus synchronisation window, and
        that wall time is what the accounting ledger records (the "Q"
        facility measures cluster time shares).
        """
        params = self.params
        state = self.clusters[cluster_id]
        lock = self._service_locks[cluster_id]
        request = lock.request(key=key)
        yield request
        self._record(EventType.INTERRUPT_ENTER, cluster_id)
        state.freeze()
        try:
            wall_ns = params.cpi_per_ce_cost_ns + params.cpi_sync_ns
            yield wall_ns
            self.accounting.charge(cluster_id, OsActivity.CPI, wall_ns)
        finally:
            state.unfreeze()
            self._record(EventType.INTERRUPT_EXIT, cluster_id)
            lock.release(request)

    def cluster_syscall(self, cluster_id: int) -> Generator:
        """Process: one cluster system call from user code."""
        params = self.params
        self._record(EventType.SYSCALL_ENTER, cluster_id)
        yield params.syscall_cluster_cost_ns
        self.accounting.charge(
            cluster_id, OsActivity.SYSCALL_CLUSTER, params.syscall_cluster_cost_ns
        )
        self._syscall_counter += 1
        if self._needs_syscall_cpi():
            yield from self.cpi_gather(cluster_id)
        self._record(EventType.SYSCALL_EXIT, cluster_id)

    def _needs_syscall_cpi(self) -> bool:
        fraction = self.params.syscall_cpi_fraction
        if fraction <= 0.0:
            return False
        period = max(1, round(1.0 / fraction))
        return self._syscall_counter % period == 0

    def global_syscall(self, cluster_id: int) -> Generator:
        """Process: one global system call (task create/start/stop...).

        Global syscalls access global critical sections.
        """
        params = self.params
        self._record(EventType.SYSCALL_ENTER, cluster_id)
        yield params.syscall_global_cost_ns
        self.accounting.charge(
            cluster_id, OsActivity.SYSCALL_GLOBAL, params.syscall_global_cost_ns
        )
        yield from self.critical_sections.access_global(
            cluster_id, params.crsect_global_cost_ns
        )
        self._record(EventType.SYSCALL_EXIT, cluster_id)

    # -- gang execution -----------------------------------------------------------

    def execute(self, cluster_id: int, work_ns: int) -> Generator:
        """Process: run *work_ns* of user computation on a cluster CE.

        The work is stretched by any time the cluster spends frozen for
        OS service while it runs, so OS overhead shows up in wall-clock
        completion time exactly once.  Returns the elapsed wall time.
        """
        if work_ns < 0:
            raise ValueError(f"work_ns must be >= 0, got {work_ns}")
        state = self.clusters[cluster_id]
        start = self.sim.now
        padded = 0
        frozen_before = state.frozen_cum_ns()
        if state.frozen:
            yield state.runnable.wait()
            frozen_before = state.frozen_cum_ns()
        yield work_ns
        while True:
            stolen = state.frozen_cum_ns() - frozen_before
            if stolen <= padded:
                break
            extra = stolen - padded
            padded = stolen
            yield extra
        return self.sim.now - start
