"""Session fixtures for the golden-table tests.

The full sweep at the baseline point (scale 0.02, seed 1994) is the
expensive part, so it runs once per session through
:func:`repro.core.resilience.resilient_sweep` against the shared result cache
(``CEDAR_REPRO_CACHE``, default ``.cedar-cache``) -- a warm cache makes
the whole golden suite run in seconds.
"""

from __future__ import annotations

import os

import pytest

from repro.core import reference
from repro.core.resilience import resilient_sweep
from repro.parallel import default_cache_dir


def _jobs() -> int:
    override = os.environ.get("CEDAR_REPRO_JOBS")
    if override:
        return max(1, int(override))
    return min(4, os.cpu_count() or 1)


@pytest.fixture(scope="session")
def golden_sweep():
    """The full ``apps x configs`` sweep at the golden baseline point."""
    outcome = resilient_sweep(
        reference.APPS,
        scale=0.02,
        seed=1994,
        jobs=_jobs(),
        cache_dir=default_cache_dir(),
    )
    assert outcome.ok, f"golden sweep failed: {outcome.failures}"
    return outcome.results
