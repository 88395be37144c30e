"""Completion times, speedups and concurrency (Section 3, Table 1)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.runner import RunResult

__all__ = ["SpeedupRow", "speedup_table"]


@dataclass(frozen=True)
class SpeedupRow:
    """One (application, configuration) row of Table 1."""

    n_processors: int
    #: Extrapolated full-scale completion time in seconds.
    ct_seconds: float
    #: Speedup over the 1-processor configuration.
    speedup: float
    #: statfx average concurrency, summed over clusters.
    concurrency: float


def speedup_table(results: dict[int, RunResult]) -> list[SpeedupRow]:
    """Build Table 1 rows from per-configuration run results.

    *results* maps processor count to :class:`RunResult`; the
    1-processor entry is the speedup baseline and must be present.
    """
    if 1 not in results:
        raise ValueError("speedup_table needs the 1-processor baseline run")
    base_ct = results[1].ct_seconds
    rows = []
    for n_proc in sorted(results):
        result = results[n_proc]
        concurrency = result.total_concurrency()
        if concurrency == 0.0:
            concurrency = result.mean_concurrency()
        rows.append(
            SpeedupRow(
                n_processors=n_proc,
                ct_seconds=result.ct_seconds,
                speedup=base_ct / result.ct_seconds if result.ct_seconds else 0.0,
                concurrency=concurrency,
            )
        )
    return rows
