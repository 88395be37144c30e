"""Model of Xylem, the Cedar operating system.

Implements the OS mechanisms whose overheads the paper characterizes in
Section 5: gang-scheduled cluster execution with cross-processor
interrupts, context switching, demand paging with sequential and
concurrent page faults, cluster/global system calls, critical sections
protected by kernel locks (with emergent spin time), and asynchronous
system traps -- all feeding a per-cluster time-accounting ledger.
"""

from repro._lazy import lazy_exports

__all__ = [
    "BackgroundWorkload",
    "ClusterState",
    "ClusterTask",
    "CriticalSections",
    "FaultStats",
    "KernelLock",
    "OsActivity",
    "TaskKind",
    "TimeAccounting",
    "TimeCategory",
    "VirtualMemory",
    "XylemKernel",
    "XylemParams",
    "XylemProcess",
    "activity_category",
    "create_process",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "accounting": ("FaultStats", "TimeAccounting"),
        "categories": ("OsActivity", "TimeCategory", "activity_category"),
        "kernel": ("ClusterState", "XylemKernel"),
        "locks": ("CriticalSections", "KernelLock"),
        "params": ("XylemParams",),
        "scheduler": ("BackgroundWorkload",),
        "task": ("ClusterTask", "TaskKind", "XylemProcess", "create_process"),
        "vm": ("VirtualMemory",),
    },
)
