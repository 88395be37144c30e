"""The runtime library's protocol counters, a plain record.

:class:`RuntimeStats` lives apart from :mod:`repro.runtime.library` so
that a result record that carries one unpickles without loading the
runtime model.
"""

from __future__ import annotations

__all__ = ["RuntimeStats"]


class RuntimeStats:
    """Always-on counters of runtime-library protocol activity.

    Harvested into the ``runtime.*`` namespace of the ``repro.obs``
    metrics registry after a run.
    """

    __slots__ = (
        "loops_posted",
        "helper_joins",
        "sdoall_pickups",
        "xdoall_pickups",
        "barriers",
        "serial_sections",
        "mc_loops",
        "detaches",
    )

    def __init__(self) -> None:
        self.loops_posted = 0
        self.helper_joins = 0
        self.sdoall_pickups = 0
        self.xdoall_pickups = 0
        self.barriers = 0
        self.serial_sections = 0
        self.mc_loops = 0
        self.detaches = 0
