"""A run's result is its portable record.

``run_application`` harvests plain data from the stack once the event
loop stops, so the result it returns pickles as it is -- the form the
process pool ships and the result cache stores -- and every analysis
reads the same values before and after a round trip.
"""

from __future__ import annotations

import pickle

from repro.apps import PAPER_APPS
from repro.core.breakdown import ct_breakdown, memory_decomposition, user_breakdown
from repro.core.concurrency import parallel_loop_concurrency
from repro.core.contention import contention_overhead
from repro.core.runner import run_application
from repro.obs.exporters import build_run_report
from repro.obs.instrument import collect_run_metrics
from repro.xylem.params import XylemParams

SCALE = 0.002
SEED = 1994


def _run(n_processors):
    return run_application(
        PAPER_APPS["FLO52"](), n_processors, scale=SCALE, os_params=XylemParams(seed=SEED)
    )


def _analyses(result, base):
    clusters = range(result.config.n_clusters)
    return {
        "ct_breakdown": [ct_breakdown(result, c) for c in clusters],
        "user_breakdown": [user_breakdown(result, c).as_dict() for c in clusters],
        "loop_concurrency": [parallel_loop_concurrency(result, c) for c in clusters],
        "memory_decomposition": memory_decomposition(result),
        "contention_overhead": contention_overhead(result, base),
        "metrics": collect_run_metrics(result).snapshot(),
        "report": build_run_report(result),
    }


def test_a_fresh_result_analyses_the_same_after_a_pickle_round_trip():
    # 32 processors: four clusters, the richest record.
    result, base = _run(32), _run(1)
    before = _analyses(result, base)
    revived, revived_base = (
        pickle.loads(pickle.dumps(r, protocol=pickle.HIGHEST_PROTOCOL))
        for r in (result, base)
    )
    assert revived.ct_ns == result.ct_ns
    assert _analyses(revived, revived_base) == before
