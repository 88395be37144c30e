"""Simulation-based reproduction of the ISCA'94 Cedar overhead study.

Natarajan, Sharma & Iyer, "Measurement-Based Characterization of Global
Memory and Network Contention, Operating System and Parallelization
Overheads: Case Study on a Shared-Memory Multiprocessor", ISCA 1994.

The original study measured the physical Cedar machine; this package
rebuilds the full stack in simulation -- hardware
(:mod:`repro.hardware`), the Xylem OS (:mod:`repro.xylem`), the Cedar
Fortran runtime (:mod:`repro.runtime`), workload models of the five
Perfect Benchmark applications (:mod:`repro.apps`), the measurement
facilities (:mod:`repro.hpm`) -- and re-runs the paper's methodology
(:mod:`repro.core`) on it.

Quickstart::

    from repro.apps import flo52
    from repro.core import run_application, user_breakdown

    result = run_application(flo52(), n_processors=32, scale=0.02)
    print(result.ct_seconds)                  # extrapolated CT
    print(user_breakdown(result, task_id=0))  # Figure-4-style breakdown
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "CedarConfig",
    "CedarMachine",
    "LoopConstruct",
    "ParallelLoop",
    "SerialPhase",
    "Simulator",
    "__version__",
    "paper_configuration",
    "run_application",
    "run_phases",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "core.runner": ("run_application", "run_phases"),
        "hardware.config": ("CedarConfig", "paper_configuration"),
        "hardware.machine": ("CedarMachine",),
        "runtime.loops": ("LoopConstruct", "ParallelLoop", "SerialPhase"),
        "sim.core": ("Simulator",),
    },
)
