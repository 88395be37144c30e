"""Degraded-mode characterization: the paper's breakdown under faults.

The headline experiment of ``repro.faults``: run an application
healthy, then under a fixed degraded campaign (one memory bank 4x
slower from t=0, one CE deconfigured), and compare the Figure-3 style
completion-time breakdowns.  The shift is the measurement: the slow
bank surfaces as extra memory/contention time, the dropped CE as load
imbalance absorbed by the runtime's self-scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.core.breakdown import ct_breakdown, memory_decomposition
from repro.core.report import render_table
from repro.core.runner import RunResult
from repro.faults.spec import CampaignSpec, FaultEvent
from repro.xylem.categories import TimeCategory

__all__ = ["DegradedModeReport", "degraded_campaign", "degraded_mode_experiment"]


def degraded_campaign(seed: int = 1994) -> CampaignSpec:
    """The canonical degraded configuration: one slow bank + one dead CE."""
    return CampaignSpec(
        name="degraded-canonical",
        seed=seed,
        description="memory bank 0 four times slower from t=0; CE 1 deconfigured",
        faults=(
            FaultEvent(kind="bank_slow", at_ns=0, target=0, factor=4.0),
            FaultEvent(kind="ce_deconfig", at_ns=0, target=1),
        ),
    )


@dataclass
class DegradedModeReport:
    """Healthy-versus-degraded breakdown comparison."""

    n_processors: int
    scale: float
    seed: int
    campaign: CampaignSpec
    #: Rows: [app, mode, CT (s), user %, system %, interrupt %, kspin %,
    #: contention stall %].
    rows: list[list[object]] = field(default_factory=list)

    HEADERS = (
        "app",
        "mode",
        "CT (s)",
        "user %",
        "system %",
        "intr %",
        "kspin %",
        "stall %",
    )

    def render(self) -> str:
        """ASCII table of the comparison."""
        return render_table(
            list(self.HEADERS),
            self.rows,
            title=(
                f"Degraded-mode characterization (P={self.n_processors}, "
                f"campaign {self.campaign.name!r})"
            ),
        )


def _breakdown_row(app: str, mode: str, result: RunResult) -> list[object]:
    """One report row from a finished run (percentages of CT)."""
    n_clusters = result.config.n_clusters
    totals = dict.fromkeys(TimeCategory, 0)
    for cluster_id in range(n_clusters):
        for category, ns in ct_breakdown(result, cluster_id).items():
            totals[category] += ns
    wall = result.ct_ns * n_clusters
    decomposition = memory_decomposition(result)

    def pct(ns: float) -> float:
        return 100.0 * ns / wall if wall else 0.0

    # Burst stall accumulates per *CE* (concurrent bursts overlap), so
    # its natural denominator is CT x processors, not CT x clusters.
    ce_wall = result.ct_ns * result.config.n_processors
    stall_pct = 100.0 * decomposition.total_stall_ns / ce_wall if ce_wall else 0.0

    return [
        app,
        mode,
        result.ct_seconds,
        pct(totals[TimeCategory.USER]),
        pct(totals[TimeCategory.SYSTEM]),
        pct(totals[TimeCategory.INTERRUPT]),
        pct(totals[TimeCategory.KSPIN]),
        stall_pct,
    ]


def degraded_mode_experiment(
    apps: tuple[str, ...] = ("FLO52", "OCEAN"),
    n_processors: int = 8,
    scale: float = 0.01,
    seed: int = 1994,
    campaign: CampaignSpec | None = None,
    jobs: int = 1,
    cache_dir: str | Path | None = None,
) -> DegradedModeReport:
    """Run each app healthy and degraded; report the breakdown shift.

    The ``2 x len(apps)`` cells run through
    :func:`repro.parallel.execute_cells`: in process with ``jobs == 1``,
    healthy and degraded runs in parallel otherwise, served from the
    result cache under *cache_dir* on warm reruns.
    """
    from repro.parallel import CellSpec, ResultCache, execute_cells

    spec = campaign if campaign is not None else degraded_campaign(seed)
    report = DegradedModeReport(
        n_processors=n_processors, scale=scale, seed=seed, campaign=spec
    )
    specs = {
        (app, mode): CellSpec(
            app=app,
            n_processors=n_processors,
            scale=scale,
            seed=seed,
            campaign=spec if mode == "degraded" else None,
        )
        for app in apps
        for mode in ("healthy", "degraded")
    }
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    cells, failures = execute_cells(list(specs.values()), jobs=jobs, cache=cache)
    if failures:
        failure = failures[0]
        raise RuntimeError(
            f"degraded-mode cell {failure.app} P={failure.n_processors} "
            f"failed: {failure.error_type}: {failure.message}"
        )
    for (app, mode), cell in specs.items():
        report.rows.append(_breakdown_row(app, mode, cells[cell]))
    return report
