"""Property tests: the fast path matches the exact path.

The push-mode statfx sampler exists purely for host speed: on every
run it arms for (trace sinks and tie-break perturbation included) it
must reproduce the exact sampler's observable results bit for bit --
and the run around it must not move either: completion time, every
``RuntimeStats`` counter, the per-category Xylem time accounting, the
statfx concurrency integrals and the page-fault statistics.

Hypothesis drives random phase lists (spread loops, XDOALLs,
cluster-only loops, serial sections, paging patterns) through a full
stack twice -- once with the fast path armed, once forced exact via
``CEDAR_REPRO_FASTPATH=off`` -- and compares.
"""

from __future__ import annotations

import os
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.runner import run_phases
from repro.runtime.loops import LoopConstruct, ParallelLoop, SerialPhase
from repro.xylem.categories import OsActivity

# -- workload strategies ----------------------------------------------------

_serial_phases = st.builds(
    SerialPhase,
    work_ns=st.integers(min_value=0, max_value=200_000),
    page_base=st.just(-1),
)

_serial_paged = st.builds(
    SerialPhase,
    work_ns=st.integers(min_value=1_000, max_value=50_000),
    page_base=st.just(5000),
    n_pages=st.integers(min_value=1, max_value=6),
)


def _loop(construct: LoopConstruct, **overrides):
    defaults = dict(
        n_inner=st.integers(min_value=1, max_value=24),
        work_ns_per_iter=st.integers(min_value=50, max_value=5_000),
        work_skew=st.sampled_from([0.0, 0.2]),
    )
    defaults.update(overrides)
    return st.builds(ParallelLoop, construct=st.just(construct), **defaults)


_loops = st.one_of(
    _loop(
        LoopConstruct.SDOALL,
        n_outer=st.integers(min_value=1, max_value=6),
        n_inner=st.integers(min_value=1, max_value=12),
        page_base=st.sampled_from([-1, 0]),
        iters_per_page=st.sampled_from([4, 8]),
    ),
    _loop(
        LoopConstruct.XDOALL,
        n_inner=st.integers(min_value=1, max_value=40),
        page_base=st.sampled_from([-1, 1000]),
        iters_per_page=st.sampled_from([4, 8]),
    ),
    _loop(LoopConstruct.CLUSTER_ONLY),
    _loop(
        LoopConstruct.CDOACROSS,
        n_inner=st.integers(min_value=1, max_value=12),
        serial_fraction=st.sampled_from([0.0, 0.3]),
        dependence_distance=st.sampled_from([0, 2]),
    ),
)

_phase_lists = st.lists(
    st.one_of(_serial_phases, _serial_paged, _loops), min_size=1, max_size=3
)


# -- the A/B harness --------------------------------------------------------


def _run(phases, n_processors: int, exact: bool):
    """One full-stack run; *exact* kills the fast path via the env."""
    env = {"CEDAR_REPRO_FASTPATH": "off"} if exact else {}
    with mock.patch.dict(os.environ, env, clear=False):
        if not exact:
            os.environ.pop("CEDAR_REPRO_FASTPATH", None)
        return run_phases(list(phases), n_processors, statfx_interval_ns=50_000)


def _fingerprint(result) -> dict:
    """Everything the two modes must agree on."""
    st_ = result.runtime.stats
    sfx = result.statfx
    acct = result.accounting
    n_clusters = result.config.n_clusters
    return {
        "ct_ns": result.ct_ns,
        "runtime": {
            name: getattr(st_, name)
            for name in (
                "loops_posted",
                "helper_joins",
                "sdoall_pickups",
                "xdoall_pickups",
                "barriers",
                "serial_sections",
                "mc_loops",
                "detaches",
            )
        },
        "accounting": {
            activity.name: [
                acct.activity_ns(c, activity) for c in range(n_clusters)
            ]
            for activity in OsActivity
        },
        "faults": (
            result.fault_stats.sequential,
            result.fault_stats.concurrent,
            result.fault_stats.joined,
        ),
        "statfx": {
            "samples": sfx.samples,
            "total": sfx.total_concurrency(),
            "per_cluster": [
                sfx.cluster_concurrency(c) for c in range(n_clusters)
            ],
        },
    }


@settings(max_examples=40, deadline=None)
@given(phases=_phase_lists, n_processors=st.sampled_from([8, 32]))
def test_batched_matches_exact(phases, n_processors):
    fast = _run(phases, n_processors, exact=False)
    slow = _run(phases, n_processors, exact=True)
    assert fast.fastpath_modes["statfx"] == "push"
    assert slow.fastpath_modes["statfx"] == "exact"
    assert _fingerprint(fast) == _fingerprint(slow)


# -- fallback arming --------------------------------------------------------


def _barrier_workload():
    return [
        ParallelLoop(
            construct=LoopConstruct.SDOALL,
            n_outer=4,
            n_inner=8,
            work_ns_per_iter=1_000,
            work_skew=0.2,
        )
    ]


def test_env_kill_switch_forces_exact(monkeypatch):
    monkeypatch.setenv("CEDAR_REPRO_FASTPATH", "off")
    result = run_phases(_barrier_workload(), 32)
    assert result.fastpath_modes == {"statfx": "exact"}


_ARMED = {"statfx": "push"}


def test_tie_perturbation_keeps_fast_paths_armed():
    result = run_phases(_barrier_workload(), 32, tie_break_seed=7)
    assert result.fastpath_modes == _ARMED


def test_trace_sink_keeps_fast_paths_armed():
    from repro.analyze.sanitize import DeterminismSink
    from repro.obs import Observability

    obs = Observability(extra_sinks=[DeterminismSink(order_capacity=0)])
    result = run_phases(_barrier_workload(), 32, obs=obs)
    assert result.fastpath_modes == _ARMED


def test_policy_alone_decides_arming(monkeypatch):
    """Only ``CEDAR_REPRO_FASTPATH`` disarms the fast path: under the
    kill switch a perturbed, sink-attached run samples statfx exactly."""
    from repro.analyze.sanitize import DeterminismSink
    from repro.obs import Observability

    monkeypatch.setenv("CEDAR_REPRO_FASTPATH", "exact")
    obs = Observability(extra_sinks=[DeterminismSink(order_capacity=0)])
    result = run_phases(_barrier_workload(), 32, obs=obs, tie_break_seed=7)
    assert result.fastpath_modes == {"statfx": "exact"}
