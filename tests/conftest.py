"""Suite-wide pytest configuration: keep garbage collection off the fixtures.

Many modules keep whole sweeps alive in module-scoped fixtures -- tens
of thousands of trace events per cell -- while their tests allocate
heavily (simulations, trace scans).  Every full collection during such
a test re-traversed all of those long-lived objects; summed over the
suite that cost more host time than its slowest test.

So each test's call phase runs with everything alive before it frozen
(:func:`gc.freeze`): its collections visit only the objects the test
itself creates.  One collection at the end of the call, still over
just those objects, frees the test's own cyclic garbage before the
rest is unfrozen.
"""

from __future__ import annotations

import gc

import pytest


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    gc.freeze()
    try:
        yield
    finally:
        gc.collect()
        gc.unfreeze()
