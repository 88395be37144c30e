"""Cluster and computational-element (CE) identities and cluster buses.

Each Cedar cluster is a modified Alliant FX/8: eight pipelined vector
CEs, 64 MB of cluster memory, a shared data cache, and a concurrency
control (CC) bus that provides fast intra-cluster parallel-loop
dispatch and synchronisation (Section 2).  The CC bus is what makes the
inner CDOALL distribution effectively free compared with the
global-memory test&set used by XDOALL (Section 6).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.config import CedarConfig
from repro.sim.core import Simulator

__all__ = ["CE", "Cluster", "ConcurrencyControlBus"]


@dataclass(frozen=True)
class CE:
    """A computational element: a pipelined vector processor."""

    #: Global CE index (0 .. n_processors-1).
    ce_id: int
    #: Owning cluster index.
    cluster_id: int
    #: Index within the cluster (0 .. ces_per_cluster-1).
    local_id: int


class ConcurrencyControlBus:
    """The intra-cluster concurrency control bus.

    Supports single-cycle-scale loop dispatch and join of the CEs in
    one cluster without touching the global network.  The paper treats
    CDOALL synchronisation cost as negligible and excludes it from the
    characterization; we model a small constant cost so it exists but
    stays negligible.
    """

    #: CE cycles for an intra-cluster dispatch or join operation.
    DISPATCH_CYCLES = 4
    SYNC_CYCLES = 8

    def __init__(self, sim: Simulator, config: CedarConfig, cluster_id: int) -> None:
        self.sim = sim
        self.config = config
        self.cluster_id = cluster_id
        self.dispatches = 0
        self.synchronisations = 0

    def dispatch_ns(self) -> int:
        """Cost (ns) of dispatching a cluster loop over the bus."""
        self.dispatches += 1
        return self.config.cycles_to_ns(self.DISPATCH_CYCLES)

    def synchronise_ns(self) -> int:
        """Cost (ns) of an intra-cluster barrier over the bus."""
        self.synchronisations += 1
        return self.config.cycles_to_ns(self.SYNC_CYCLES)


class Cluster:
    """One Cedar cluster: CEs plus the cluster CC bus."""

    def __init__(self, sim: Simulator, config: CedarConfig, cluster_id: int) -> None:
        if not 0 <= cluster_id < config.n_clusters:
            raise ValueError(f"cluster_id {cluster_id} out of range")
        self.sim = sim
        self.config = config
        self.cluster_id = cluster_id
        self.ccbus = ConcurrencyControlBus(sim, config, cluster_id)
        self.ces = [
            CE(
                ce_id=cluster_id * config.ces_per_cluster + local,
                cluster_id=cluster_id,
                local_id=local,
            )
            for local in range(config.ces_per_cluster)
        ]

    @property
    def n_ces(self) -> int:
        """Number of CEs in this cluster."""
        return len(self.ces)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Cluster {self.cluster_id} with {self.n_ces} CEs>"
