"""The one fast-path kill switch shared by every layer.

Three layers of the simulator carry an analytic fast path beside
their exact model: lean runtime locks and fused protocol steps
(:mod:`repro.runtime.fastpath`), fused OS service paths
(:mod:`repro.xylem.fastpath`) and the push-mode ``statfx`` sampler
(:mod:`repro.hpm.statfx`).  They are all governed by one environment
variable so a single switch reproduces the fully exact tree:

``CEDAR_REPRO_FASTPATH=off`` (or ``exact``)
    Every fast path is disabled at construction time; all layers run
    their exact code.  The ``cedar-repro --no-fastpath`` CLI flag sets
    this for one invocation.

The policy is read at *stack construction*, not per event, so flipping
the variable mid-run has no effect -- which is what makes a run's
recorded fast-path modes
(:attr:`repro.core.runner.RunResult.fastpath_modes`) trustworthy.
"""

from __future__ import annotations

import os

__all__ = ["fastpath_policy"]

#: Values of ``CEDAR_REPRO_FASTPATH`` that force the exact paths.
_DISABLED = {"off", "exact", "0"}


def fastpath_policy() -> bool:
    """Whether the analytic fast paths are allowed by the environment."""
    return os.environ.get("CEDAR_REPRO_FASTPATH", "").strip().lower() not in _DISABLED
