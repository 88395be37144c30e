"""Global memory and network contention overhead (Section 7, Table 4).

Implements the paper's estimation methodology: the time the 1-processor
configuration takes to execute the parallel-loop code is the *ideal*
total processing time for the machine's network and memory (it contains
no cross-CE contention); on a multiprocessor configuration the ideal
parallel-loop time is that total divided by the average parallel-loop
concurrency, and the contention overhead is the excess of the measured
parallel-loop time over the ideal, as a percentage of completion time:

    single cluster:  T_ideal = (T1_mc + T1_sx) / par_concurr
    multicluster:    T_ideal = T1_mc / par_concurr_main
                             + T1_sx / par_concurr_total
    Ov_cont = (T_actual - T_ideal) / CT * 100
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.concurrency import (
    loop_index,
    loop_regions,
    parallel_loop_concurrency,
    total_parallel_loop_concurrency,
)
from repro.core.record import RunResult

__all__ = ["ContentionRow", "tp_actual_ns", "t1_split_ns", "contention_overhead"]


@dataclass(frozen=True)
class ContentionRow:
    """One (application, configuration) row of Table 4."""

    #: Measured parallel-loop execution time (ns, simulated scale).
    tp_actual_ns: float
    #: Ideal parallel-loop execution time (ns, simulated scale).
    tp_ideal_ns: float
    #: Completion time (ns, simulated scale).
    ct_ns: int

    @property
    def ov_cont_pct(self) -> float:
        """Contention overhead as percent of completion time."""
        if self.ct_ns == 0:
            return 0.0
        return (self.tp_actual_ns - self.tp_ideal_ns) / self.ct_ns * 100.0


def tp_actual_ns(result: RunResult) -> float:
    """Measured parallel-loop execution time of the main task."""
    return float(sum(end - start for start, end in loop_regions(result, task_id=0)))


def t1_split_ns(result_1proc: RunResult) -> tuple[float, float]:
    """(T1_mc, T1_sx): 1-processor parallel-loop time split.

    ``T1_mc`` is the time in main cluster-only loops, ``T1_sx`` the
    time in spread (s(x)doall) loops, both on the 1-processor run.
    """
    if result_1proc.n_processors != 1:
        raise ValueError(
            f"t1_split_ns needs the 1-processor run, got "
            f"{result_1proc.n_processors} processors"
        )
    t1_mc = float(sum(end - start for start, end in loop_index(result_1proc).mc_spans))
    total = tp_actual_ns(result_1proc)
    return t1_mc, max(0.0, total - t1_mc)


def contention_overhead(result: RunResult, result_1proc: RunResult) -> ContentionRow:
    """Estimate the contention overhead of *result* (Table 4 row).

    ``result_1proc`` must be the same application at the same scale on
    the 1-processor configuration.
    """
    if result.app_name != result_1proc.app_name:
        raise ValueError(
            f"application mismatch: {result.app_name} vs {result_1proc.app_name}"
        )
    if abs(result.scale - result_1proc.scale) > 1e-12:
        raise ValueError(
            f"scale mismatch: {result.scale} vs {result_1proc.scale}"
        )
    t1_mc, t1_sx = t1_split_ns(result_1proc)
    if result.config.n_clusters == 1:
        par = parallel_loop_concurrency(result, task_id=0)
        tp_ideal = (t1_mc + t1_sx) / par
    else:
        par_main = parallel_loop_concurrency(result, task_id=0)
        par_total = total_parallel_loop_concurrency(result)
        tp_ideal = t1_mc / par_main + t1_sx / par_total
    return ContentionRow(
        tp_actual_ns=tp_actual_ns(result),
        tp_ideal_ns=tp_ideal,
        ct_ns=result.ct_ns,
    )
