"""Machine configuration for the modelled Cedar multiprocessor.

The numbers follow the description in Section 2 of the paper and the
companion Cedar papers (Kuck et al. ISCA'93, Konicek et al. ICPP'91):

* 4 clusters, each a modified Alliant FX/8 with 8 computational
  elements (CEs) and a cluster concurrency-control bus;
* a 64 MB global memory of 32 independent modules, double-word (8 byte)
  interleaved, each module busy for 4 processor clock cycles per
  request;
* two unidirectional two-stage shuffle-exchange networks built from
  8x8 crossbar switches (one CE->memory, one memory->CE).

All Cedar configurations measured in the paper share the *same* network
and global memory; only the number of active processors changes
(Section 3.2).  The paper's five configurations are exposed through
:func:`paper_configuration`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["CedarConfig", "paper_configuration", "PAPER_PROCESSOR_COUNTS"]

#: Processor counts of the five configurations measured in the paper.
PAPER_PROCESSOR_COUNTS = (1, 4, 8, 16, 32)


@dataclass(frozen=True)
class CedarConfig:
    """Static description of a Cedar machine configuration.

    Times are expressed in CE clock cycles unless noted otherwise; the
    CE cycle time of the modelled Alliant FX/8 hardware is 170 ns.
    """

    #: Number of clusters (modified Alliant FX/8s).
    n_clusters: int = 4
    #: Computational elements per cluster.
    ces_per_cluster: int = 8
    #: Independent, 8-byte-interleaved global memory modules.
    n_memory_modules: int = 32
    #: CE clock cycle in nanoseconds.
    cycle_ns: int = 170
    #: Cycles a global memory module is busy per request (Section 7).
    memory_service_cycles: int = 4
    #: Radix of the crossbar switches in the shuffle-exchange network.
    switch_radix: int = 8
    #: Cycles to traverse one switch/link hop.
    link_cycles: int = 1
    #: Aggregate words/cycle a cluster's CEs can move to/from global
    #: memory through the shared cluster interface and cache board --
    #: the bottleneck that makes even single-cluster vector traffic
    #: contend (cf. the Cedar performance study, Kuck et al. 1993).
    cluster_channel_words_per_cycle: float = 2.2
    #: Cycles spent in the Global Interface each way.
    gi_cycles: int = 2
    #: Depth of each switch output-port buffer (packets).
    switch_queue_depth: int = 4
    #: Global memory size in bytes (64 MB).
    global_memory_bytes: int = 64 * 1024 * 1024
    #: Cluster local memory size in bytes (64 MB per cluster).
    cluster_memory_bytes: int = 64 * 1024 * 1024
    #: Page size used by the Xylem virtual-memory model.
    page_bytes: int = 4096
    #: Words a CE can issue per cycle when streaming vector accesses.
    vector_issue_rate: float = 1.0
    #: Outstanding global-memory requests a CE's Global Interface can
    #: keep in flight; a longer (contended) round trip therefore lowers
    #: the achievable stream rate to window / round_trip.
    vector_window: int = 16
    #: Model the cluster shared-data-cache and TLB stalls the paper
    #: excludes from its characterization (Section 3.2).  Off by
    #: default to match the paper's accounting; see
    #: examples/excluded_overheads.py.
    model_cluster_cache: bool = False

    def __post_init__(self) -> None:
        if self.n_clusters <= 0:
            raise ValueError(f"n_clusters must be positive, got {self.n_clusters}")
        if self.ces_per_cluster <= 0:
            raise ValueError(f"ces_per_cluster must be positive, got {self.ces_per_cluster}")
        if self.n_memory_modules <= 0:
            raise ValueError(f"n_memory_modules must be positive, got {self.n_memory_modules}")
        if self.switch_radix < 2:
            raise ValueError(f"switch_radix must be >= 2, got {self.switch_radix}")
        if self.cycle_ns <= 0:
            raise ValueError(f"cycle_ns must be positive, got {self.cycle_ns}")

    @property
    def n_processors(self) -> int:
        """Total number of CEs in the configuration."""
        return self.n_clusters * self.ces_per_cluster

    @property
    def interleave_bytes(self) -> int:
        """Interleaving granularity of the global memory (double word)."""
        return 8

    def cycles_to_ns(self, cycles: float) -> int:
        """Convert CE cycles to integer nanoseconds of simulated time."""
        return int(round(cycles * self.cycle_ns))

    def ns_to_cycles(self, ns: float) -> float:
        """Convert nanoseconds of simulated time to CE cycles."""
        return ns / self.cycle_ns

    def seconds_to_ns(self, seconds: float) -> int:
        """Convert seconds to integer nanoseconds of simulated time."""
        return int(round(seconds * 1e9))

    def module_for_address(self, address: int) -> int:
        """Global memory module serving *address* (8-byte interleaved)."""
        return (address // self.interleave_bytes) % self.n_memory_modules

    @property
    def min_memory_round_trip_cycles(self) -> int:
        """Uncontended CE -> memory -> CE round trip, in cycles.

        GI out + two forward hops + module service + two return hops +
        GI in.  This is the same for every configuration, which is what
        lets the paper isolate the contention factor (Section 3.2).
        """
        hops = 2 * self._network_stages() * self.link_cycles
        return 2 * self.gi_cycles + hops + self.memory_service_cycles

    def _network_stages(self) -> int:
        endpoints = max(self.n_clusters * self.ces_per_cluster, self.n_memory_modules)
        stages = 1
        reach = self.switch_radix
        while reach < endpoints:
            reach *= self.switch_radix
            stages += 1
        return stages

    def with_processors(self, n_processors: int) -> "CedarConfig":
        """Derive the paper's configuration with *n_processors* CEs.

        Configurations up to one full cluster keep a single cluster
        with fewer CEs; beyond that, whole 8-CE clusters are added
        (Table 1 footnote: the 4-processor configuration uses CEs from
        a single cluster).
        """
        if n_processors <= 0:
            raise ValueError(f"n_processors must be positive, got {n_processors}")
        full = CedarConfig.__dataclass_fields__["ces_per_cluster"].default
        if n_processors <= self.ces_per_cluster:
            return replace(self, n_clusters=1, ces_per_cluster=n_processors)
        if n_processors % self.ces_per_cluster != 0:
            raise ValueError(
                f"{n_processors} processors is not a whole number of "
                f"{self.ces_per_cluster}-CE clusters"
            )
        del full
        return replace(self, n_clusters=n_processors // self.ces_per_cluster)


def paper_configuration(n_processors: int) -> CedarConfig:
    """Return one of the five machine configurations used in the paper.

    ``1``, ``4`` and ``8`` processors use a single cluster; ``16`` uses
    two clusters and ``32`` the full four-cluster Cedar.  The network
    and global memory are identical across configurations.
    """
    if n_processors not in PAPER_PROCESSOR_COUNTS:
        raise ValueError(
            f"paper configurations are {PAPER_PROCESSOR_COUNTS}, got {n_processors}"
        )
    return CedarConfig().with_processors(n_processors)
