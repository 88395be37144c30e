"""Model of the Cedar Fortran runtime library.

Implements the parallel-loop execution protocol characterized in
Section 6 of the paper: helper tasks spinning for work, hierarchical
SDOALL/CDOALL distribution, flat XDOALL distribution through a
global-memory lock, and spin finish-barriers.
"""

from repro._lazy import lazy_exports

__all__ = [
    "CedarFortranRuntime",
    "LoopConstruct",
    "ParallelLoop",
    "Phase",
    "RuntimeParams",
    "SerialPhase",
    "merge_adjacent_loops",
    "mergeable",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "library": ("CedarFortranRuntime",),
        "loops": ("LoopConstruct", "ParallelLoop", "Phase", "SerialPhase"),
        "params": ("RuntimeParams",),
        "transform": ("merge_adjacent_loops", "mergeable"),
    },
)
