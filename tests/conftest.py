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


@pytest.fixture(scope="session")
def paper_cells():
    """The 25 paper cells at scale 0.002, seed 1994, per-iteration events on.

    ``{app: {n_processors: RunResult}}`` of fresh runs, shared by the
    modules that check the trace analysis against its oracles:
    ``tests/hpm/test_iteration_summary.py`` reads them as they are, and
    ``tests/core/test_loop_index.py`` and ``tests/parallel/test_lazy_events.py``
    read them through :func:`default_paper_cells`.  Tests must not
    mutate the results beyond their ``_cache``.
    """
    from repro.apps import PAPER_APPS
    from repro.core.reference import APPS, CONFIGS
    from repro.core.runner import run_application
    from repro.xylem.params import XylemParams

    return {
        app: {
            n: run_application(
                PAPER_APPS[app](),
                n,
                scale=0.002,
                os_params=XylemParams(seed=1994),
                iteration_events=True,
            )
            for n in CONFIGS
        }
        for app in APPS
    }


@pytest.fixture(scope="session")
def default_paper_cells(paper_cells):
    """``paper_cells`` as a default run records them.

    The same results with the four per-iteration event types left out of
    the trace, which is all that ``iteration_events`` changes
    (``tests/hpm/test_iteration_summary.py`` checks that).  The oracle
    scans of the trace-analysis tests then read default-sized traces.
    """
    import dataclasses

    from repro.hpm.events import EventList, EventType

    per_iteration = {
        EventType.PICKUP_ENTER,
        EventType.PICKUP_EXIT,
        EventType.ITER_START,
        EventType.ITER_END,
    }

    def default_view(result):
        events = EventList()
        for row in result.events.rows():
            if row[0] not in per_iteration:
                events.append(*row)
        return dataclasses.replace(result, events=events, _cache={})

    return {
        app: {n: default_view(result) for n, result in by_config.items()}
        for app, by_config in paper_cells.items()
    }
