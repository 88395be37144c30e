"""Generator-based discrete-event simulation kernel.

The kernel underlies every other subsystem of the reproduction: the
hardware model (:mod:`repro.hardware`), the Xylem OS model
(:mod:`repro.xylem`) and the Cedar Fortran runtime model
(:mod:`repro.runtime`) are all collections of simulation processes
scheduled by a single :class:`Simulator`.
"""

from repro._lazy import lazy_exports

__all__ = [
    "AllOf",
    "AnyOf",
    "ArbitratedResource",
    "Condition",
    "DeadlockSuspected",
    "EmptySchedule",
    "Event",
    "Gate",
    "Interrupt",
    "KeyedRequest",
    "PENDING",
    "PriorityRequest",
    "PriorityResource",
    "Process",
    "Request",
    "Resource",
    "RunawaySimulation",
    "Simulator",
    "SimulationError",
    "Store",
    "StopSimulation",
    "Timeout",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "core": (
            "PENDING",
            "AllOf",
            "AnyOf",
            "Condition",
            "Event",
            "Process",
            "Simulator",
            "Timeout",
        ),
        "errors": (
            "DeadlockSuspected",
            "EmptySchedule",
            "Interrupt",
            "RunawaySimulation",
            "SimulationError",
            "StopSimulation",
        ),
        "resources": (
            "ArbitratedResource",
            "Gate",
            "KeyedRequest",
            "PriorityRequest",
            "PriorityResource",
            "Request",
            "Resource",
            "Store",
        ),
    },
)
