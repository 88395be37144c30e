"""The fast path publishes the exact path's results on every paper cell.

Every one of the five applications on every paper configuration runs
twice through :func:`repro.parallel.executor.run_cell`: once as users
run it, with the push-mode statfx sampler armed, and once with
``CEDAR_REPRO_FASTPATH=off`` forcing the exact sampler.  The two must
publish the same :func:`~repro.analyze.race.fingerprint_result` digest
-- every table and breakdown the run feeds, the Figures 5-9 pickup and
iteration summary and user-time breakdowns included.
"""

from __future__ import annotations

import pytest

from repro.analyze.race import fingerprint_result
from repro.core.reference import APPS, CONFIGS
from repro.parallel import CellSpec, run_cell

SCALE = 0.002
SEED = 1994


def _digests(app: str, mode: str) -> dict[int, str]:
    digests = {}
    for n_proc in CONFIGS:
        result = run_cell(CellSpec(app, n_proc, scale=SCALE, seed=SEED))
        assert result.fastpath_modes["statfx"] == mode, (app, n_proc)
        digests[n_proc] = fingerprint_result(result).digest
    return digests


@pytest.mark.parametrize("app", APPS)
def test_fast_and_exact_paths_fingerprint_alike(app, monkeypatch):
    fast = _digests(app, "push")
    monkeypatch.setenv("CEDAR_REPRO_FASTPATH", "off")
    assert _digests(app, "exact") == fast
