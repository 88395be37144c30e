"""The assembled Cedar machine model.

:class:`CedarMachine` wires together the clusters and the contention
machinery.  Its memory-access facade, :meth:`memory_burst`, prices a
burst with the analytic contention model from the number of *currently
streaming* CEs, which the machine tracks, so contention emerges from
concurrency.  The packet-level :class:`~repro.hardware.memory.GlobalMemorySystem`
is not part of the machine: it is the reference that model is
validated against, built directly by tests and benchmarks.
"""

from __future__ import annotations

from collections.abc import Generator

from repro.hardware.cache import ClusterCacheModel
from repro.hardware.cluster import CE, Cluster
from repro.hardware.config import CedarConfig
from repro.hardware.contention import ContentionModel, LoadTracker
from repro.hardware.ledger import MemoryLedger
from repro.sim.core import Simulator

__all__ = ["CedarMachine", "MemoryLedger"]


class CedarMachine:
    """A simulated Cedar configuration.

    Parameters
    ----------
    sim:
        The simulator all machine processes run on.
    config:
        Machine configuration.
    """

    def __init__(self, sim: Simulator, config: CedarConfig) -> None:
        self.sim = sim
        self.config = config
        self.clusters = [Cluster(sim, config, i) for i in range(config.n_clusters)]
        self.contention = ContentionModel(config)
        self.load = LoadTracker(sim, n_clusters=config.n_clusters)
        self.mem_ledger = MemoryLedger(config.n_clusters)
        self._ideal_cache: dict[tuple[int, float], int] = {}
        self._burst_ns_memo: dict[tuple[int, int, float, int], int] = {}
        #: Optional cluster cache/TLB stall models (Section 3.2's
        #: excluded overheads), built when the config enables them.
        self.cluster_caches: list[ClusterCacheModel] | None = None
        if config.model_cluster_cache:
            self.cluster_caches = [
                ClusterCacheModel() for _ in range(config.n_clusters)
            ]

    @property
    def n_processors(self) -> int:
        """Total CEs in this configuration."""
        return self.config.n_processors

    def all_ces(self) -> list[CE]:
        """All CEs of the machine, in global id order."""
        return [ce for cluster in self.clusters for ce in cluster.ces]

    def ce(self, ce_id: int) -> CE:
        """Look up a CE by global id."""
        cluster = self.clusters[ce_id // self.config.ces_per_cluster]
        return cluster.ces[ce_id % self.config.ces_per_cluster]

    # -- degradation (fault injection) -------------------------------------

    def set_memory_degradation(
        self,
        bank_service_factor: float = 1.0,
        worst_bank_factor: float = 1.0,
        offline_modules: int = 0,
        link_penalty_cycles: float = 0.0,
    ) -> None:
        """Degrade the analytic memory path (see ``repro.faults``).

        Invalidates the memoised ideal-burst cache: the ideal time is
        defined against the *current* (possibly degraded) machine, so
        contention stall keeps meaning queueing delay, not the fault.
        """
        self.contention.set_degradation(
            bank_service_factor=bank_service_factor,
            worst_bank_factor=worst_bank_factor,
            offline_modules=offline_modules,
            link_penalty_cycles=link_penalty_cycles,
        )
        self._ideal_cache.clear()
        self._burst_ns_memo.clear()

    # -- analytic fast path ------------------------------------------------

    #: Segments a burst is split into so its cost tracks load changes.
    BURST_SEGMENTS = 4

    def memory_burst(self, n_words: int, rate: float, cluster_id: int = 0) -> Generator:
        """Process: one CE streams ``n_words`` global-memory requests.

        The burst is priced with the analytic contention model from the
        number of CEs streaming concurrently -- both machine-wide (bank
        pressure) and within the caller's own cluster (shared channel
        and stage-0 switch pressure); the CE registers with the load
        tracker for the duration so later bursts see it.  The stream is
        split into a few segments, each re-priced at the load current
        when it starts -- otherwise a CE whose process happens to start
        an instant before its peers would be priced at an artificially
        low load for its whole burst.  Returns the total duration in
        nanoseconds.

        Load observations are tie-stable (``repro.analyze.race``): the
        first segment waits for the end-of-tick observe slot, so every
        CE of a simultaneously-starting cohort prices against the full
        cohort -- not against however many happened to enter first in
        event-queue order; later segments start at arbitrary instants
        mid-stream and price at the tracker's settled view.
        """
        sim = self.sim
        start = sim.now
        segments = min(self.BURST_SEGMENTS, n_words)
        base = n_words // segments
        remainder = n_words - base * segments
        load = self.load
        # Segment cost memo: loop shapes recur heavily, so the same
        # (words, load) tuple prices over and over; one dict probe
        # replaces the contention fixed point *and* the ns conversion.
        # Invalidated by :meth:`set_memory_degradation` together with
        # the contention model's own memos.
        memo = self._burst_ns_memo
        load.enter(rate, cluster_id)
        try:
            first = True
            for index in range(segments):
                words = base + (1 if index < remainder else 0)
                if words == 0:
                    continue
                if first:
                    first = False
                    yield sim.tail_event()
                    requesters = load.active
                    cluster_requesters = load.active_in_cluster(cluster_id)
                else:
                    requesters = load.settled_active
                    cluster_requesters = load.settled_in_cluster(cluster_id)
                key = (words, requesters, rate, cluster_requesters)
                delay = memo.get(key)
                if delay is None:
                    cycles = self.contention.vector_time_cycles(
                        words,
                        requesters=requesters,
                        rate=rate,
                        cluster_requesters=cluster_requesters,
                    )
                    delay = self.config.cycles_to_ns(cycles)
                    memo[key] = delay
                yield delay
        finally:
            load.exit(rate, cluster_id)
        elapsed = sim.now - start
        ledger = self.mem_ledger
        ledger.busy_ns[cluster_id] += elapsed
        ledger.ideal_ns[cluster_id] += self._cached_ideal_ns(n_words, rate)
        ledger.bursts[cluster_id] += 1
        ledger.words[cluster_id] += n_words
        return elapsed

    def _cached_ideal_ns(self, n_words: int, rate: float) -> int:
        """Memoised :meth:`ideal_burst_ns` (loop shapes recur heavily)."""
        key = (n_words, rate)
        ideal = self._ideal_cache.get(key)
        if ideal is None:
            ideal = self.ideal_burst_ns(n_words, rate)
            self._ideal_cache[key] = ideal
        return ideal

    def cache_stall_ns(self, cluster_id: int, bytes_accessed: int, ws_bytes: int) -> int:
        """Cluster cache + TLB stall time for a chunk, if modelled.

        Returns 0 when cache modelling is disabled (the paper's own
        accounting) or the loop declares no cluster working set.
        """
        if self.cluster_caches is None or ws_bytes <= 0 or bytes_accessed <= 0:
            return 0
        cycles = self.cluster_caches[cluster_id].chunk_stall_cycles(
            bytes_accessed, ws_bytes
        )
        return self.config.cycles_to_ns(cycles)

    def global_round_trip_ns(self) -> int:
        """One scalar global-memory round trip under current load.

        Used for synchronisation traffic (lock test&set probes,
        barrier-flag checks): the probe queues behind whatever vector
        streams are in flight right now.  Priced at the load tracker's
        settled view -- the streams in flight as of the start of this
        timestep -- so the synchronous read is independent of
        same-instant burst enter/exit order (``repro.analyze.race``).
        """
        cycles = self.contention.scalar_round_trip_cycles(
            self.load.settled_active, self.load.settled_mean_rate
        )
        ns = self.config.cycles_to_ns(cycles)
        self.mem_ledger.scalar_round_trips += 1
        self.mem_ledger.scalar_round_trip_ns += ns
        return ns

    def ideal_burst_ns(self, n_words: int, rate: float) -> int:
        """Burst duration with a single requester (no contention).

        Uses the same segmentation as :meth:`memory_burst` so the two
        are directly comparable.
        """
        segments = min(self.BURST_SEGMENTS, n_words)
        base = n_words // segments
        remainder = n_words - base * segments
        total = 0
        for index in range(segments):
            words = base + (1 if index < remainder else 0)
            if words == 0:
                continue
            cycles = self.contention.vector_time_cycles(
                words, requesters=1, rate=rate, cluster_requesters=1
            )
            total += self.config.cycles_to_ns(cycles)
        return total
