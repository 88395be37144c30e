"""Analytic model of global-memory and network contention.

The paper's contention overhead arises because more than one processor
issues (mostly vector) requests to the shared global memory through the
shared two-stage network (Section 7).  The packet-level simulator in
:mod:`repro.hardware.network` reproduces this directly but is too slow
for full-application runs, so application-scale simulations use this
closed-form open-queueing-network model instead.  The model is
validated against the packet-level simulator by
``tests/hardware/test_contention_validation.py`` and the ablation bench
``benchmarks/ablations/test_ablation_contention_models.py``.

Model
-----
``k`` CEs each offer ``rate`` requests per CE cycle, addressed
uniformly over the 32 interleaved modules (vector accesses with unit
or odd stride spread across banks).  Three queueing centres lie on the
forward path -- a stage-0 switch port, a stage-1 switch port, and a
memory bank -- and two more on the return path.  Each centre is
approximated as M/D/1; if any centre is saturated the per-CE throughput
is throttled to the bottleneck capacity.  A hot-spot variant
concentrates a fraction of the traffic on a single bank, reproducing
the Pfister/Norton tree-saturation throughput collapse used in the
clustering discussion of Section 6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.hardware.config import CedarConfig

__all__ = ["ContentionModel", "ContentionEstimate", "LoadTracker"]


@dataclass(frozen=True)
class ContentionEstimate:
    """Result of one analytic contention evaluation."""

    #: Number of actively-requesting CEs the estimate assumes.
    requesters: int
    #: Offered per-CE request rate (requests per CE cycle).
    offered_rate: float
    #: Achieved per-CE request rate after bottleneck throttling.
    achieved_rate: float
    #: Mean request round trip in CE cycles, including queueing.
    round_trip_cycles: float
    #: Highest utilisation over all queueing centres (1.0 == saturated).
    bottleneck_utilisation: float

    @property
    def throttled(self) -> bool:
        """Whether some centre saturated and throughput was reduced."""
        return self.achieved_rate < self.offered_rate - 1e-12


class ContentionModel:
    """Closed-form contention estimates for a :class:`CedarConfig`."""

    #: Utilisation cap used to keep M/D/1 waiting times finite.
    MAX_UTILISATION = 0.98

    def __init__(self, config: CedarConfig) -> None:
        self.config = config
        self._stage0_switches = max(1, math.ceil(config.n_processors / config.switch_radix))
        # Degraded-machine state (repro.faults): identity values model a
        # healthy machine and keep every formula below unchanged.
        self._bank_service_factor = 1.0
        self._worst_bank_factor = 1.0
        self._offline_modules = 0
        self._link_penalty_cycles = 0.0
        # Memo tables for the two hot entry points.  Both are pure
        # functions of their arguments and the degradation state, so the
        # tables are simply dropped whenever the state changes.  Loop
        # shapes recur heavily (a handful of (n_words, load) pairs per
        # phase), which makes these near-perfect caches on the
        # application fast path.
        self._vector_memo: dict[tuple, float] = {}
        self._scalar_memo: dict[tuple, float] = {}

    # -- degradation (fault injection) ------------------------------------

    def set_degradation(
        self,
        bank_service_factor: float = 1.0,
        worst_bank_factor: float = 1.0,
        offline_modules: int = 0,
        link_penalty_cycles: float = 0.0,
    ) -> None:
        """Degrade the modelled memory system (``repro.faults``).

        Parameters
        ----------
        bank_service_factor:
            Mean multiplier on bank service time over the *online*
            banks (>= 1 models one or more slowed banks).
        worst_bank_factor:
            Multiplier of the single slowest bank.  Interleaved vector
            streams sweep every bank, so the slowest bank is its own
            queueing centre: when it saturates it throttles the whole
            stream, which a mean factor alone would dilute away.
        offline_modules:
            Banks taken offline; their traffic is remapped over the
            survivors, raising per-bank arrival rates.
        link_penalty_cycles:
            Extra CE cycles added to every switch-hop service time.
        """
        if bank_service_factor <= 0.0:
            raise ValueError(
                f"bank_service_factor must be > 0, got {bank_service_factor}"
            )
        if worst_bank_factor < bank_service_factor:
            raise ValueError(
                f"worst_bank_factor ({worst_bank_factor}) cannot be below the "
                f"mean bank_service_factor ({bank_service_factor})"
            )
        if not 0 <= offline_modules < self.config.n_memory_modules:
            raise ValueError(
                f"offline_modules must leave at least one bank online, "
                f"got {offline_modules} of {self.config.n_memory_modules}"
            )
        if link_penalty_cycles < 0.0:
            raise ValueError(
                f"link_penalty_cycles must be >= 0, got {link_penalty_cycles}"
            )
        self._bank_service_factor = bank_service_factor
        self._worst_bank_factor = worst_bank_factor
        self._offline_modules = offline_modules
        self._link_penalty_cycles = link_penalty_cycles
        self._vector_memo.clear()
        self._scalar_memo.clear()

    @property
    def degraded(self) -> bool:
        """Whether any degradation is currently applied."""
        return (
            self._bank_service_factor != 1.0
            or self._worst_bank_factor != 1.0
            or self._offline_modules != 0
            or self._link_penalty_cycles != 0.0
        )

    def _online_modules(self) -> int:
        return self.config.n_memory_modules - self._offline_modules

    def _base_round_trip_cycles(self) -> float:
        """Uncontended round trip including degradation penalties.

        A slowed bank or a degraded link lengthens even a lone request:
        the forward and return networks each add the per-hop penalty at
        every stage, and the bank's service stretch adds directly.
        """
        base = float(self.config.min_memory_round_trip_cycles)
        if self._link_penalty_cycles > 0.0:
            base += 2 * self.config._network_stages() * self._link_penalty_cycles
        if self._bank_service_factor != 1.0:
            base += (self._bank_service_factor - 1.0) * self.config.memory_service_cycles
        return base

    # -- queueing helpers -------------------------------------------------

    @staticmethod
    def _md1_wait(utilisation: float, service: float) -> float:
        """M/D/1 mean waiting time for given utilisation and service time."""
        if utilisation <= 0.0:
            return 0.0
        rho = min(utilisation, ContentionModel.MAX_UTILISATION)
        return rho * service / (2.0 * (1.0 - rho))

    def _centres(
        self,
        requesters: int,
        rate: float,
        hot_fraction: float = 0.0,
        cluster_requesters: int | None = None,
    ):
        """Yield (name, arrival_rate, service_cycles, visit_prob) centres.

        Arrival rates are per-centre request rates in requests/cycle for
        *one* representative centre on the path of a tagged request;
        ``visit_prob`` is the probability the tagged request visits that
        centre (1.0 for everything on the common path, ``1/modules`` for
        the slowest degraded bank).  ``cluster_requesters`` is the
        number of streaming CEs sharing the tagged CE's own cluster
        (vector phases are synchronised within a cluster); when unknown,
        active CEs are assumed spread evenly over the clusters.
        """
        config = self.config
        k = requesters
        total = k * rate
        if cluster_requesters is not None:
            per_switch = max(1, min(cluster_requesters, config.ces_per_cluster))
        else:
            per_switch = min(k, math.ceil(k / self._stage0_switches))
        link = float(config.link_cycles) + self._link_penalty_cycles
        service = float(config.memory_service_cycles) * self._bank_service_factor
        modules = self._online_modules()
        uniform = 1.0 - hot_fraction
        # Shared cluster interface/cache channel on the way out.
        channel_service = 1.0 / config.cluster_channel_words_per_cycle
        yield ("cluster-channel", per_switch * rate, channel_service, 1.0)
        # Forward stage 0: per-switch traffic spread over radix ports.
        yield ("fwd-stage0", per_switch * rate / config.switch_radix, link, 1.0)
        # Forward stage 1: all traffic spread over the online module links.
        yield ("fwd-stage1", total / modules, link, 1.0)
        # Memory bank seen by a uniform request.
        bank_uniform = total * uniform / modules
        bank_hot = total * hot_fraction + bank_uniform
        if hot_fraction > 0.0:
            yield ("bank-hot", bank_hot, service, 1.0)
        else:
            yield ("bank", bank_uniform, service, 1.0)
        # The slowest degraded bank: interleaved streams sweep every
        # bank, so its saturation gates the whole stream even though a
        # tagged request only visits it 1/modules of the time.
        if self._worst_bank_factor > self._bank_service_factor:
            slow_service = float(config.memory_service_cycles) * self._worst_bank_factor
            yield ("bank-slowest", bank_uniform, slow_service, 1.0 / modules)
        # Return path mirrors the forward path.
        yield ("bwd-stage0", total / modules, link, 1.0)
        yield ("bwd-stage1", per_switch * rate / config.switch_radix, link, 1.0)

    # -- public API --------------------------------------------------------

    def estimate(
        self,
        requesters: int,
        rate: float,
        hot_fraction: float = 0.0,
        cluster_requesters: int | None = None,
    ) -> ContentionEstimate:
        """Estimate round trip and achieved throughput.

        Parameters
        ----------
        requesters:
            Number of CEs actively issuing requests machine-wide.
        rate:
            Offered requests per CE cycle (0 < rate <= 1).
        hot_fraction:
            Fraction of the traffic addressed to a single hot module
            (0 for uniform vector traffic).
        cluster_requesters:
            Streaming CEs sharing the tagged CE's cluster (defaults to
            an even spread of *requesters* over the clusters).
        """
        if requesters < 0:
            raise ValueError(f"requesters must be >= 0, got {requesters}")
        if rate < 0.0:
            raise ValueError(f"rate must be >= 0, got {rate}")
        if not 0.0 <= hot_fraction <= 1.0:
            raise ValueError(f"hot_fraction must be in [0, 1], got {hot_fraction}")
        if requesters == 0 or rate == 0.0:
            return ContentionEstimate(
                requesters=requesters,
                offered_rate=rate,
                achieved_rate=rate,
                round_trip_cycles=self._base_round_trip_cycles(),
                bottleneck_utilisation=0.0,
            )
        # Throughput throttling: scale the offered rate down until no
        # centre exceeds the utilisation cap.
        scale = 1.0
        for _, arrival, service, _visit in self._centres(
            requesters, rate, hot_fraction, cluster_requesters
        ):
            utilisation = arrival * service
            if utilisation > self.MAX_UTILISATION:
                scale = min(scale, self.MAX_UTILISATION / utilisation)
        achieved = rate * scale
        worst = 0.0
        wait = 0.0
        for _, arrival, service, visit in self._centres(
            requesters, achieved, hot_fraction, cluster_requesters
        ):
            utilisation = arrival * service
            worst = max(worst, utilisation)
            wait += visit * self._md1_wait(utilisation, service)
        round_trip = self._base_round_trip_cycles() + wait
        return ContentionEstimate(
            requesters=requesters,
            offered_rate=rate,
            achieved_rate=achieved,
            round_trip_cycles=round_trip,
            bottleneck_utilisation=worst,
        )

    def stream_rate(
        self, requesters: int, rate: float, cluster_requesters: int | None = None
    ) -> float:
        """Self-consistent achieved per-CE stream rate.

        Two mechanisms limit the offered rate: open-network saturation
        (some queueing centre at capacity) and the closed-loop window
        constraint -- a CE's Global Interface keeps at most
        ``vector_window`` requests in flight, so the achieved rate
        cannot exceed ``window / round_trip``.  The fixed point is
        found by a few damped iterations.
        """
        window = float(self.config.vector_window)
        achieved = self.estimate(requesters, rate, cluster_requesters=cluster_requesters).achieved_rate
        for _ in range(20):
            est = self.estimate(requesters, achieved, cluster_requesters=cluster_requesters)
            limited = min(rate, est.achieved_rate, window / est.round_trip_cycles)
            if abs(limited - achieved) < 1e-9:
                achieved = limited
                break
            achieved = 0.5 * (achieved + limited)
        return max(achieved, 1e-9)

    def vector_time_cycles(
        self,
        n_words: int,
        requesters: int,
        rate: float,
        cluster_requesters: int | None = None,
    ) -> float:
        """Time in CE cycles for one CE to stream ``n_words`` requests.

        The CE pipelines requests at the achieved (window- and
        saturation-limited) rate; the last response arrives one round
        trip after the last issue.
        """
        if n_words <= 0:
            raise ValueError(f"n_words must be positive, got {n_words}")
        key = (n_words, requesters, rate, cluster_requesters)
        cached = self._vector_memo.get(key)
        if cached is not None:
            return cached
        achieved = self.stream_rate(requesters, rate, cluster_requesters)
        est = self.estimate(requesters, achieved, cluster_requesters=cluster_requesters)
        issue_time = (n_words - 1) / achieved
        result = issue_time + est.round_trip_cycles
        self._vector_memo[key] = result
        return result

    def slowdown(self, n_words: int, requesters: int, rate: float) -> float:
        """Stretch factor of a vector stream vs. the single-CE case."""
        alone = self.vector_time_cycles(n_words, 1, rate)
        loaded = self.vector_time_cycles(n_words, requesters, rate)
        return loaded / alone

    def scalar_round_trip_cycles(self, background_k: int, background_rate: float) -> float:
        """Round trip of one scalar request under background streams.

        Used for synchronisation traffic -- lock test&set, barrier-flag
        reads -- issued while ``background_k`` CEs stream vector
        requests at ``background_rate``.  The probe queues behind the
        background traffic at every centre.  Utilisation is capped a
        little below the stream cap because the bounded switch buffers
        of the real network limit how much queue a single scalar probe
        can encounter.
        """
        if background_k <= 0 or background_rate <= 0.0:
            return self._base_round_trip_cycles()
        key = (background_k, background_rate)
        cached = self._scalar_memo.get(key)
        if cached is not None:
            return cached
        achieved = self.stream_rate(background_k, background_rate)
        wait = 0.0
        for _, arrival, service, visit in self._centres(background_k, achieved):
            utilisation = min(arrival * service, 0.95)
            wait += visit * self._md1_wait(utilisation, service)
        result = self._base_round_trip_cycles() + wait
        self._scalar_memo[key] = result
        return result

    def hot_spot_bandwidth(
        self,
        requesters: int,
        rate: float,
        hot_fraction: float,
        combining: bool = False,
    ) -> float:
        """Aggregate delivered requests/cycle under hot-spot traffic.

        Reproduces the Pfister/Norton result that a small hot-spot
        fraction collapses the *total* network bandwidth: the hot bank
        saturates first and everything queued behind it slows down.

        With ``combining=True`` the switches merge requests addressed
        to the hot location (hardware message combining, the remedy
        Pfister/Norton propose and the paper's Section 6 cites): each
        switch stage can merge up to ``radix`` hot requests into one,
        so the hot traffic reaching the bank shrinks by up to
        ``radix ** stages`` and the bandwidth collapse disappears.
        """
        if combining and hot_fraction > 0.0:
            stages = max(1, self.config._network_stages())
            merge_factor = min(requesters, self.config.switch_radix**stages)
            hot_fraction = hot_fraction / merge_factor
        est = self.estimate(requesters, rate, hot_fraction=hot_fraction)
        return est.achieved_rate * requesters


class LoadTracker:
    """Tracks how many CEs are actively streaming global-memory traffic.

    The application-scale simulation registers a CE here for the
    duration of each memory burst; the current count feeds the analytic
    model so that contention *emerges* from concurrency.  The tracker
    also accumulates a time-weighted average for reporting.

    Live counters (:attr:`active` and friends) change mid-timestep as
    same-instant enters and exits interleave, so their value seen by a
    same-instant reader depends on event-queue tie order -- the DES
    analog of an unsynchronized read (see ``repro.analyze.race``).
    Pricing therefore reads the *settled* view: the state as of the end
    of the previous timestep, committed lazily on the first mutation of
    a new timestep, which every same-instant reader observes
    identically.  High-water marks are likewise taken over settled
    (end-of-timestep) states.
    """

    def __init__(self, sim, n_clusters: int = 4) -> None:
        self._sim = sim
        self._active = 0
        self._rate_sum = 0.0
        self._last_change_ns = 0
        self._weighted_sum = 0.0
        self._per_cluster = [0] * n_clusters
        #: Settled (start-of-current-timestep) copies of the counters,
        #: valid while ``now == _mutation_tick``; otherwise the live
        #: counters *are* settled.
        self._settled_active = 0
        self._settled_rate_sum = 0.0
        self._settled_per_cluster = [0] * n_clusters
        self._mutation_tick = -1
        #: Most CEs streaming simultaneously at any settled instant.
        self.high_water = 0
        #: Per-cluster streaming-CE high-water marks (settled).
        self.cluster_high_water = [0] * n_clusters

    @property
    def active(self) -> int:
        """Number of CEs currently streaming (live, mid-timestep)."""
        return self._active

    def active_in_cluster(self, cluster_id: int) -> int:
        """Number of streaming CEs in one cluster (live, mid-timestep)."""
        return self._per_cluster[cluster_id]

    @property
    def settled_active(self) -> int:
        """Streaming-CE count as of the start of the current timestep."""
        if self._sim.now == self._mutation_tick:
            return self._settled_active
        return self._active

    def settled_in_cluster(self, cluster_id: int) -> int:
        """Cluster streaming-CE count as of the start of the timestep."""
        if self._sim.now == self._mutation_tick:
            return self._settled_per_cluster[cluster_id]
        return self._per_cluster[cluster_id]

    @property
    def mean_rate(self) -> float:
        """Mean offered rate of the currently streaming CEs (live)."""
        if self._active == 0:
            return 0.0
        return self._rate_sum / self._active

    @property
    def settled_mean_rate(self) -> float:
        """Mean offered rate as of the start of the current timestep."""
        if self._sim.now == self._mutation_tick:
            if self._settled_active == 0:
                return 0.0
            return self._settled_rate_sum / self._settled_active
        return self.mean_rate

    def _accumulate(self) -> None:
        now = self._sim.now
        self._weighted_sum += self._active * (now - self._last_change_ns)
        self._last_change_ns = now

    def _settle(self) -> None:
        """Commit the previous timestep's end state before a mutation.

        Runs once per mutated timestep; the snapshot it takes is what
        :attr:`settled_active` serves for the rest of the tick, and is
        the granularity at which high-water marks are recorded (purely
        intra-timestep spikes -- zero-duration overlap -- don't count).
        """
        now = self._sim.now
        if now == self._mutation_tick:
            return
        self._mutation_tick = now
        active = self._active
        self._settled_active = active
        self._settled_rate_sum = self._rate_sum
        per_cluster = self._per_cluster
        self._settled_per_cluster[:] = per_cluster
        if active > self.high_water:
            self.high_water = active
        cluster_high = self.cluster_high_water
        for cluster_id, count in enumerate(per_cluster):
            if count > cluster_high[cluster_id]:
                cluster_high[cluster_id] = count

    def enter(self, rate: float = 0.5, cluster_id: int = 0) -> None:
        """Register one more streaming CE offering *rate* req/cycle."""
        self._settle()
        self._accumulate()
        self._active += 1
        self._rate_sum += rate
        self._per_cluster[cluster_id] += 1

    def exit(self, rate: float = 0.5, cluster_id: int = 0) -> None:
        """Deregister a streaming CE (pass the enter arguments back)."""
        if self._active <= 0:
            raise ValueError("LoadTracker.exit() without matching enter()")
        if self._per_cluster[cluster_id] <= 0:
            raise ValueError(f"no streaming CEs registered in cluster {cluster_id}")
        self._settle()
        self._accumulate()
        self._active -= 1
        self._rate_sum = max(0.0, self._rate_sum - rate)
        self._per_cluster[cluster_id] -= 1

    def time_weighted_mean(self) -> float:
        """Average number of streaming CEs so far."""
        now = self._sim.now
        total = self._weighted_sum + self._active * (now - self._last_change_ns)
        if now == 0:
            return 0.0
        return total / now
