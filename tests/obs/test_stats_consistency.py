"""Cross-checks between the metrics registry and the analysis modules.

The registry is only trustworthy if its numbers agree with the
breakdown the paper-reproduction computes independently; these tests
pin that consistency on a real application run.
"""

import pytest

from repro.apps import flo52
from repro.core import memory_decomposition, run_application
from repro.obs import Observability

NAMESPACES = ("network.", "memory.", "xylem.", "runtime.")


@pytest.fixture(scope="module")
def run():
    obs = Observability()
    result = run_application(flo52(), 32, scale=0.01, obs=obs)
    return result, obs.registry


def test_registry_spans_all_namespaces(run):
    _, registry = run
    names = registry.names()
    assert len(names) >= 20
    for prefix in NAMESPACES:
        assert any(n.startswith(prefix) for n in names), f"no {prefix} metrics"


def test_memory_busy_matches_breakdown_within_1pct(run):
    result, registry = run
    decomposition = memory_decomposition(result)
    registry_busy = sum(
        registry.value(f"memory.cluster{c}.busy_ns")
        for c in range(result.config.n_clusters)
    )
    assert decomposition.total_busy_ns > 0
    assert registry_busy == pytest.approx(decomposition.total_busy_ns, rel=0.01)


def test_memory_stall_is_busy_minus_ideal(run):
    result, registry = run
    for c in range(result.config.n_clusters):
        busy = registry.value(f"memory.cluster{c}.busy_ns")
        ideal = registry.value(f"memory.cluster{c}.ideal_ns")
        stall = registry.value(f"memory.cluster{c}.stall_ns")
        assert stall == max(0, busy - ideal)


def test_contention_present_on_32_processors(run):
    result, _ = run
    decomposition = memory_decomposition(result)
    # 32 CEs streaming concurrently must show contention stall.
    assert decomposition.total_stall_ns > 0
    assert 0 < decomposition.stall_fraction < 1


def test_runtime_counters_match_runtime_stats(run):
    result, registry = run
    stats = result.runtime_stats
    assert registry.value("runtime.loops_posted") == stats.loops_posted
    assert registry.value("runtime.barriers") == stats.barriers
    assert stats.loops_posted > 0
    assert stats.barriers > 0


def test_hpm_event_tallies_match_trace_buffer(run):
    result, registry = run
    assert registry.value("hpm.events_recorded") == len(result.events)
    tallied = [registry.value(name) for name in registry.names("hpm.events.")]
    assert sum(tallied) == len(result.events)


def test_xylem_pagefaults_match_fault_stats(run):
    result, registry = run
    faults = result.fault_stats
    assert registry.value("xylem.pagefault.count") == (
        faults.sequential + faults.concurrent
    )


def test_ce_busy_time_exported_per_ce(run):
    result, registry = run
    busy = [
        registry.value(f"runtime.ce{i}.busy_ns")
        for i in range(result.config.n_processors)
    ]
    assert len(busy) == 32
    # Every cluster's lead CE carries the task's serial work.
    per_cluster = result.config.ces_per_cluster
    assert all(busy[c * per_cluster] > 0 for c in range(result.config.n_clusters))
    # Most CEs execute loop iterations (the trailing CE of a cluster
    # may legitimately pick up nothing at small scales).
    assert sum(1 for b in busy if b > 0) >= 24
