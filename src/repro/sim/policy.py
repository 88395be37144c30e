"""The fast-path kill switch.

One layer of the simulator carries an analytic fast path beside its
exact model: the push-mode ``statfx`` sampler (:mod:`repro.hpm.statfx`),
which accrues samples at activity flips instead of waking a sampler
process every interval.  The exact sampler stays as its reference, and
one environment variable chooses between them:

``CEDAR_REPRO_FASTPATH=off`` (or ``exact``)
    The fast path is disabled at construction time, and ``statfx``
    samples with its process.  The ``cedar-repro --no-fastpath`` CLI
    flag sets this for one invocation.

Sequential children (memory bursts, execute slices, OS services) are
not governed here: they run inline by ``yield from`` on every path.

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
    """Whether the analytic fast path is allowed by the environment."""
    return os.environ.get("CEDAR_REPRO_FASTPATH", "").strip().lower() not in _DISABLED
