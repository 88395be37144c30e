"""Measurement facilities modelled after the paper's instrumentation.

* :class:`CedarHpm` -- the external, non-intrusive hardware trace
  monitor (``cedarhpm``) with 50 ns timestamps;
* :class:`Statfx` -- the software concurrency monitor (``statfx``);
* :class:`ActivityBoard` -- the per-CE activity state both monitors
  observe;
* the "Q" utilisation view is provided by
  :class:`repro.xylem.TimeAccounting`.
"""

from repro._lazy import lazy_exports

__all__ = [
    "ActivityBoard",
    "CedarHpm",
    "EventType",
    "OS_EVENTS",
    "RTL_EVENTS",
    "Statfx",
    "TraceEvent",
    "load_trace",
    "load_trace_meta",
    "save_trace",
    "trace_summary",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "activity": ("ActivityBoard",),
        "events": ("OS_EVENTS", "RTL_EVENTS", "EventType", "TraceEvent"),
        "monitor": ("CedarHpm",),
        "statfx": ("Statfx",),
        "traces": ("load_trace", "load_trace_meta", "save_trace", "trace_summary"),
    },
)
