"""High-level experiment harness: one function per paper table/figure.

Each ``table*``/``figure*`` function consumes :class:`RunResult`
objects keyed by application and processor count -- the
``results`` of a :func:`repro.core.resilience.resilient_sweep` -- and
returns both structured rows and a rendered text table, side by side
with the paper's published values from :mod:`repro.core.reference`.
"""

from __future__ import annotations

from repro.core import reference
from repro.core.breakdown import ct_breakdown, user_breakdowns
from repro.core.concurrency import parallel_loop_concurrency
from repro.core.contention import contention_overhead
from repro.core.report import render_table
from repro.core.runner import RunResult
from repro.core.speedup import speedup_table
from repro.xylem.categories import OsActivity, TimeCategory

__all__ = [
    "table1",
    "table2",
    "table3",
    "table4",
    "figure3",
    "figure_user_breakdown",
    "USER_BREAKDOWN_FIGURES",
]

#: The paper's figure number for each application's user-time breakdown.
USER_BREAKDOWN_FIGURES = {"FLO52": 5, "MDG": 6, "ARC2D": 7, "OCEAN": 8, "ADM": 9}


# -- Table 1: CTs, speedups, average concurrency ----------------------------


def table1(results: dict[str, dict[int, RunResult]]) -> tuple[list[list], str]:
    """Reproduce Table 1; paper values are interleaved for comparison."""
    rows: list[list] = []
    for app, by_config in results.items():
        for row in speedup_table(by_config):
            paper = reference.TABLE1.get(app, {}).get(row.n_processors)
            rows.append(
                [
                    app,
                    row.n_processors,
                    row.ct_seconds,
                    paper[0] if paper else None,
                    row.speedup,
                    paper[1] if paper else None,
                    row.concurrency,
                    paper[2] if paper else None,
                ]
            )
    headers = [
        "app",
        "procs",
        "CT (s)",
        "paper CT",
        "speedup",
        "paper",
        "concurr",
        "paper",
    ]
    return rows, render_table(headers, rows, title="Table 1: CTs, Speedups, Concurrency")


# -- Table 2: detailed OS overheads on the 4-cluster Cedar ---------------------


def table2(results_32: dict[str, RunResult]) -> tuple[list[list], str]:
    """Reproduce Table 2 for the given 32-processor runs."""
    rows: list[list] = []
    for app, result in results_32.items():
        paper_app = reference.TABLE2.get(app, {})
        for activity in OsActivity:
            ns = result.accounting.activity_total_ns(activity)
            seconds = result.seconds(ns)
            pct = result.fraction_of_ct(ns) * 100.0
            paper = paper_app.get(activity.value)
            rows.append(
                [
                    app,
                    activity.value,
                    seconds,
                    paper[0] if paper else None,
                    pct,
                    paper[1] if paper else None,
                ]
            )
    headers = ["app", "overhead", "(s)", "paper (s)", "% CT", "paper %"]
    return rows, render_table(
        headers, rows, title="Table 2: Detailed OS overheads (4-cluster Cedar)"
    )


# -- Table 3: average parallel-loop concurrency ---------------------------------


def table3(results: dict[str, dict[int, RunResult]]) -> tuple[list[list], str]:
    """Reproduce Table 3 (per-task parallel-loop concurrency)."""
    rows: list[list] = []
    for app, by_config in results.items():
        for n_proc, result in sorted(by_config.items()):
            if n_proc == 1:
                continue
            paper_cfg = reference.TABLE3.get(app, {}).get(n_proc, {})
            for task_id in range(result.config.n_clusters):
                name = "Main" if task_id == 0 else f"helper{task_id}"
                value = parallel_loop_concurrency(result, task_id)
                rows.append([app, n_proc, name, value, paper_cfg.get(name)])
    headers = ["app", "procs", "task", "par_concurr", "paper"]
    return rows, render_table(headers, rows, title="Table 3: Average Parallel Loop Concurrency")


# -- Table 4: global memory and network contention overhead -----------------------


def table4(results: dict[str, dict[int, RunResult]]) -> tuple[list[list], str]:
    """Reproduce Table 4 (contention overhead estimation)."""
    rows: list[list] = []
    for app, by_config in results.items():
        base = by_config[1]
        for n_proc, result in sorted(by_config.items()):
            paper = reference.TABLE4.get(app, {}).get(n_proc)
            if n_proc == 1:
                from repro.core.contention import tp_actual_ns

                rows.append(
                    [
                        app,
                        1,
                        base.seconds(tp_actual_ns(base)),
                        paper[0] if paper else None,
                        None,
                        None,
                        None,
                        None,
                    ]
                )
                continue
            row = contention_overhead(result, base)
            rows.append(
                [
                    app,
                    n_proc,
                    result.seconds(row.tp_actual_ns),
                    paper[0] if paper else None,
                    result.seconds(row.tp_ideal_ns),
                    paper[1] if paper else None,
                    row.ov_cont_pct,
                    paper[2] if paper else None,
                ]
            )
    headers = [
        "app",
        "procs",
        "Tp_act (s)",
        "paper",
        "Tp_ideal (s)",
        "paper",
        "Ov_cont %",
        "paper %",
    ]
    return rows, render_table(headers, rows, title="Table 4: GM and Network Contention Overhead")


# -- Figure 3: completion-time breakdown -------------------------------------------


def figure3(results: dict[str, dict[int, RunResult]]) -> tuple[list[list], str]:
    """Reproduce Figure 3: CT breakdown per configuration (main cluster)."""
    rows: list[list] = []
    for app, by_config in results.items():
        for n_proc, result in sorted(by_config.items()):
            breakdown = ct_breakdown(result, cluster_id=0)
            ct = result.ct_ns
            rows.append(
                [
                    app,
                    n_proc,
                    breakdown[TimeCategory.USER] / ct * 100.0,
                    breakdown[TimeCategory.SYSTEM] / ct * 100.0,
                    breakdown[TimeCategory.INTERRUPT] / ct * 100.0,
                    breakdown[TimeCategory.KSPIN] / ct * 100.0,
                ]
            )
    headers = ["app", "procs", "user %", "system %", "interrupt %", "kspin %"]
    return rows, render_table(
        headers, rows, title="Figure 3: Completion Time Breakdown (main cluster)"
    )


# -- Figures 5-9: user-time breakdown ------------------------------------------------


def figure_user_breakdown(
    app: str, by_config: dict[int, RunResult]
) -> tuple[list[list], str]:
    """Reproduce one of Figures 5-9 for one application.

    Rows are (config, task) pairs with each component as a percentage
    of the task's total execution time; single-cluster configurations
    report the main task only, like the paper.
    """
    rows: list[list] = []
    for n_proc, result in sorted(by_config.items()):
        for b in user_breakdowns(result):
            name = "Main" if b.task_id == 0 else f"helper{b.task_id}"
            shares = [b.fraction(ns) * 100.0 for ns in b.as_dict().values()]
            rows.append([n_proc, name, *shares, b.overhead_fraction * 100.0])
    headers = [
        "procs",
        "task",
        "serial%",
        "mc%",
        "sdo iter%",
        "xdo iter%",
        "setup%",
        "sdo pick%",
        "xdo pick%",
        "barrier%",
        "hlp wait%",
        "par ovhd%",
    ]
    prefix = f"Figure {USER_BREAKDOWN_FIGURES[app]}: " if app in USER_BREAKDOWN_FIGURES else ""
    return rows, render_table(headers, rows, title=f"{prefix}User Time Breakdown for {app}")
