"""Observability for the simulator itself.

The rest of ``repro`` models Cedar's measurement apparatus (cedarhpm,
statfx, Xylem accounting); this package instruments the *simulation*:
a dependency-free metrics registry with hierarchical names, opt-in
kernel trace sinks (structured event tracing, per-process profiling),
collectors that harvest every subsystem's always-on counters after a
run, and exporters producing a JSON run report and a Perfetto-loadable
Chrome trace.  See ``docs/observability.md``.
"""

from repro._lazy import lazy_exports

__all__ = [
    "CAMPAIGN_LOG_SCHEMA",
    "CAMPAIGN_REPORT_SCHEMA",
    "REPORT_SCHEMA_VERSION",
    "CampaignTelemetry",
    "CellSpan",
    "Counter",
    "Gauge",
    "Histogram",
    "KernelTraceBuffer",
    "KernelTraceRecord",
    "MetricsRegistry",
    "MultiSink",
    "Observability",
    "ProcessProfileRecord",
    "ProcessProfiler",
    "ProgressReporter",
    "TieBreakAuditSink",
    "Timeseries",
    "TraceSink",
    "WallTimer",
    "build_campaign_report",
    "build_run_report",
    "campaign_chrome_trace",
    "chrome_trace",
    "collect_hpm_metrics",
    "collect_run_metrics",
    "git_revision",
    "host_clock_s",
    "load_campaign_log",
    "profile_key",
    "render_campaign_report",
    "save_campaign_report",
    "save_campaign_trace",
    "save_chrome_trace",
    "save_report",
    "spans_from_log",
    "validate_name",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "campaign": (
            "CAMPAIGN_LOG_SCHEMA",
            "CAMPAIGN_REPORT_SCHEMA",
            "CampaignTelemetry",
            "CellSpan",
            "ProgressReporter",
            "build_campaign_report",
            "campaign_chrome_trace",
            "load_campaign_log",
            "render_campaign_report",
            "save_campaign_report",
            "save_campaign_trace",
            "spans_from_log",
        ),
        "exporters": (
            "REPORT_SCHEMA_VERSION",
            "build_run_report",
            "chrome_trace",
            "git_revision",
            "save_chrome_trace",
            "save_report",
        ),
        "hazard": ("TieBreakAuditSink",),
        "hostclock": ("WallTimer", "host_clock_s"),
        "instrument": ("Observability", "collect_hpm_metrics", "collect_run_metrics"),
        "profile": ("ProcessProfiler", "ProcessProfileRecord", "profile_key"),
        "registry": (
            "Counter",
            "Gauge",
            "Histogram",
            "MetricsRegistry",
            "Timeseries",
            "validate_name",
        ),
        "tracing": ("KernelTraceBuffer", "KernelTraceRecord", "MultiSink", "TraceSink"),
    },
)
