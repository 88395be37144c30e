"""The paper's methodology: running, measuring and decomposing.

This package is the reproduction's *primary contribution* layer: the
experiment runner (Section 4's measurement setup), the completion-time
and user-time breakdowns (Sections 5 and 6), the parallel-loop
concurrency equation and the contention-overhead estimator (Section 7),
plus the paper's published numbers for comparison.
"""

from repro._lazy import lazy_exports

__all__ = [
    "CellFailure",
    "ContentionRow",
    "DEFAULT_SCALE",
    "Interval",
    "IntervalKind",
    "MemoryDecomposition",
    "PredictedTime",
    "RunResult",
    "SpeedupRow",
    "SweepOutcome",
    "UserTimeBreakdown",
    "average_concurrency",
    "contention_overhead",
    "ct_breakdown",
    "extract_intervals",
    "failure_report",
    "intervals_of",
    "loop_regions",
    "memory_decomposition",
    "parallel_fraction",
    "parallel_loop_concurrency",
    "predict_completion_time",
    "render_ct_bars",
    "render_partial_table",
    "render_table",
    "render_user_bars",
    "resilient_sweep",
    "resume_sweep",
    "save_failure_report",
    "stacked_bar",
    "run_application",
    "run_phases",
    "speedup_table",
    "t1_split_ns",
    "total_parallel_loop_concurrency",
    "tp_actual_ns",
    "user_breakdown",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "breakdown": (
            "MemoryDecomposition",
            "UserTimeBreakdown",
            "ct_breakdown",
            "memory_decomposition",
            "user_breakdown",
        ),
        "concurrency": (
            "average_concurrency",
            "loop_regions",
            "parallel_fraction",
            "parallel_loop_concurrency",
            "total_parallel_loop_concurrency",
        ),
        "figures": ("render_ct_bars", "render_user_bars", "stacked_bar"),
        "model": ("PredictedTime", "predict_completion_time"),
        "contention": (
            "ContentionRow",
            "contention_overhead",
            "t1_split_ns",
            "tp_actual_ns",
        ),
        "report": ("render_table",),
        "resilience": (
            "CellFailure",
            "SweepOutcome",
            "failure_report",
            "render_partial_table",
            "resilient_sweep",
            "resume_sweep",
            "save_failure_report",
        ),
        "record": ("DEFAULT_SCALE", "RunResult"),
        "runner": ("run_application", "run_phases"),
        "speedup": ("SpeedupRow", "speedup_table"),
        "trace_analysis": (
            "Interval",
            "IntervalKind",
            "extract_intervals",
            "intervals_of",
        ),
    },
)
