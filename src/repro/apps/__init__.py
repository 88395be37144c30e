"""Workload models of the five Perfect Benchmark applications.

FLO52, ARC2D, MDG, OCEAN and ADM as characterized in the paper, plus a
synthetic workload generator.  Each model is calibrated against the
paper's 1-processor measurements; multi-processor behaviour emerges
from the simulated machine, OS and runtime mechanisms.
"""

from collections.abc import Callable

from repro.apps.adm import adm
from repro.apps.arc2d import arc2d
from repro.apps.base import AppModel, LoopShape, PageSpace, loop_timing
from repro.apps.flo52 import flo52
from repro.apps.mdg import mdg
from repro.apps.ocean import ocean
from repro.apps.synthetic import synthetic_app

#: Builders of the five paper applications, in the paper's order.
PAPER_APPS = {
    "FLO52": flo52,
    "ARC2D": arc2d,
    "MDG": mdg,
    "OCEAN": ocean,
    "ADM": adm,
}


def resolve_app(app: str) -> Callable[..., AppModel]:
    """App-name -> model builder, accepting the synthetic workload too.

    Paper application names match in any case; ``synthetic`` (or
    ``synth``) names :func:`synthetic_app`.  Raises ``ValueError`` on
    any other name.
    """
    key = app.upper()
    if key in PAPER_APPS:
        return PAPER_APPS[key]
    if key in ("SYNTH", "SYNTHETIC"):
        return synthetic_app
    raise ValueError(
        f"unknown application {app!r}; pick from "
        f"{sorted(PAPER_APPS) + ['synthetic']}"
    )


__all__ = [
    "AppModel",
    "LoopShape",
    "PAPER_APPS",
    "PageSpace",
    "adm",
    "arc2d",
    "flo52",
    "loop_timing",
    "mdg",
    "ocean",
    "resolve_app",
    "synthetic_app",
]
