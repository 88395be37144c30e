"""Hardware model of the Cedar shared-memory multiprocessor.

Implements the machine described in Section 2 of the paper: clusters of
pipelined vector CEs with a concurrency control bus, a 32-module
interleaved global memory, and two-stage shuffle-exchange forward and
return networks, plus an analytic contention model used by
application-scale simulations.
"""

from repro._lazy import lazy_exports

__all__ = [
    "CacheConfig",
    "CE",
    "CedarConfig",
    "ClusterCacheModel",
    "CedarMachine",
    "Cluster",
    "ConcurrencyControlBus",
    "ContentionEstimate",
    "ContentionModel",
    "DeltaNetwork",
    "GlobalMemorySystem",
    "LoadTracker",
    "MemoryStats",
    "NetworkStats",
    "PAPER_PROCESSOR_COUNTS",
    "Packet",
    "SetAssociativeCache",
    "StreamingMissModel",
    "paper_configuration",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "cache": (
            "CacheConfig",
            "ClusterCacheModel",
            "SetAssociativeCache",
            "StreamingMissModel",
        ),
        "cluster": ("CE", "Cluster", "ConcurrencyControlBus"),
        "config": ("PAPER_PROCESSOR_COUNTS", "CedarConfig", "paper_configuration"),
        "contention": ("ContentionEstimate", "ContentionModel", "LoadTracker"),
        "machine": ("CedarMachine",),
        "memory": ("GlobalMemorySystem", "MemoryStats"),
        "network": ("DeltaNetwork", "NetworkStats", "Packet"),
    },
)
