"""Average parallel-loop concurrency (Section 7, Table 3).

Implements the paper's estimation methodology verbatim: from ``pf``,
the fraction of completion time each cluster spends on parallel-loop
execution, and ``avg_concurr``, the statfx-measured average concurrency
of the cluster, solve

    (1 - pf) + pf * par_concurr = avg_concurr

for ``par_concurr``, the average number of CEs involved while the
cluster executes parallel loops.  The concurrency during non-parallel
work (serial code, sdoall outer pickup, barrier spinning, busy-waiting
for work) is 1 on each cluster.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from typing import NamedTuple

from repro.core.record import RunResult
from repro.core.trace_analysis import pair_events
from repro.hpm.events import EventType, Row

__all__ = [
    "LoopIndex",
    "loop_index",
    "loop_regions",
    "parallel_fraction",
    "average_concurrency",
    "parallel_loop_concurrency",
    "total_parallel_loop_concurrency",
]

#: Point events that delimit a loop region -> (opens it, is the main
#: task's).  The main task's spread-loop region runs from the loop post
#: to its entering the finish barrier; a helper's from joining the loop
#: to detaching from it.
_REGION_EVENTS = {
    EventType.LOOP_POST: (True, True),
    EventType.BARRIER_ENTER: (False, True),
    EventType.HELPER_JOIN: (True, False),
    EventType.LOOP_DETACH: (False, False),
}


class LoopIndex(NamedTuple):
    """Everything Tables 3 and 4 read from one run's trace."""

    #: Parallel-loop execution regions per task id, sorted (start, end) ns.
    regions: dict[int, list[tuple[int, int]]]
    #: The main task's main cluster-only loop spans, in pairing order.
    mc_spans: list[tuple[int, int]]


def loop_index(result: RunResult) -> LoopIndex:
    """Scan *result*'s trace once for every task's loop regions.

    The scan feeds the events through
    :func:`~repro.core.trace_analysis.pair_events`, so it validates the
    trace exactly as interval extraction does (``ValueError`` on a close
    without an open) and closes an unclosed main cluster-only loop at
    the completion time.  Cached on the result beside its user-time breakdowns.
    """
    cached = result._cache.get("loop_index")
    if cached is not None:
        return cached
    regions: dict[int, list[tuple[int, int]]] = {}
    starts: dict[tuple[int, object], int] = {}

    def track(rows: Iterable[Row]) -> Iterator[Row]:
        for row in rows:
            role = _REGION_EVENTS.get(row[0])
            if role is not None:
                opens, main_only = role
                task_id = row[3]
                if (task_id == 0) == main_only:
                    key = (task_id, _seq(row[4]))
                    if opens:
                        starts[key] = row[1]
                    else:
                        start = starts.pop(key, None)
                        if start is not None:
                            regions.setdefault(task_id, []).append((start, row[1]))
            yield row

    mc_spans = [
        (opener[1], close_ns)
        for opener, close_ns in pair_events(track(result.events.rows()), result.ct_ns)
        if opener[0] == EventType.MC_LOOP_START and opener[3] == 0
    ]
    regions.setdefault(0, []).extend(mc_spans)
    for spans in regions.values():
        spans.sort()
    result._cache["loop_index"] = index = LoopIndex(regions, mc_spans)
    return index


def loop_regions(result: RunResult, task_id: int) -> list[tuple[int, int]]:
    """Parallel-loop execution regions of one task, as (start, end) ns.

    For the main task a spread loop's region runs from the loop post to
    the main task entering the finish barrier; main cluster-only loops
    contribute their full interval.  For a helper task a region runs
    from joining the loop to detaching from it.
    """
    return list(loop_index(result).regions.get(task_id, ()))


def _seq(payload: object) -> object:
    if isinstance(payload, tuple) and payload:
        return payload[0]
    return payload


def parallel_fraction(result: RunResult, task_id: int) -> float:
    """``pf``: fraction of CT the task spends on parallel-loop work."""
    if result.ct_ns == 0:
        return 0.0
    total = sum(end - start for start, end in loop_regions(result, task_id))
    return min(1.0, total / result.ct_ns)


def average_concurrency(result: RunResult, cluster_id: int) -> float:
    """statfx-measured average concurrency of one cluster."""
    value = result.cluster_concurrency(cluster_id)
    if value == 0.0:
        # Sparse sampling fallback: the exact time-weighted board value.
        value = result.mean_concurrency(cluster_id)
    return value


def parallel_loop_concurrency(result: RunResult, task_id: int) -> float:
    """Table 3: average parallel-loop concurrency of one task.

    Solves the paper's equation; degenerate cases (no parallel work)
    return 1.0, and the result is clamped to the physical range
    [1, ces_per_cluster].
    """
    pf = parallel_fraction(result, task_id)
    if pf <= 0.0:
        return 1.0
    avg = average_concurrency(result, task_id)
    par = (avg - (1.0 - pf)) / pf
    return max(1.0, min(float(result.config.ces_per_cluster), par))


def total_parallel_loop_concurrency(result: RunResult) -> float:
    """Sum of per-task parallel-loop concurrency over all clusters."""
    return sum(
        parallel_loop_concurrency(result, task)
        for task in range(result.config.n_clusters)
    )
