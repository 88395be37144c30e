"""Speed guards for the kernel fast paths (PR: fast-path the kernel).

Two claims, each asserted in the cheapest form that would actually
catch a regression:

* **Event pooling works** -- a long direct-delay chain re-arms one
  Timeout carrier in place instead of allocating per tick, and pooled
  carriers are reused across processes.  Pure counter assertions:
  deterministic, no timing.
* **The kernel clears a conservative normalised floor** -- the timeout
  chain must process at least ``3x`` the pre-fast-path baseline's
  events per *calibration second* (the ``test_obs_overhead.py``
  yardstick).  The committed figure is ~11x, so the 3x floor only
  trips on a real regression, not host noise; the batch-retry idiom
  absorbs bursty CI hosts.

``scripts/bench_kernel.py`` measures the kernel in full and writes
``BENCH_kernel.json``; this file is the fast tier-1 guard.
"""

from __future__ import annotations

from time import perf_counter

from repro.sim import Simulator

#: Pre-fast-path chain throughput (events per calibration second),
#: recorded with ``scripts/bench_kernel.py`` on the seed tree.
PRE_FASTPATH_CHAIN_EVENTS_PER_CAL = 235_000

#: The PR's kernel target, asserted as a floor.
REQUIRED_SPEEDUP = 3.0

#: Batches attempted before declaring a regression (host-noise armour).
MAX_BATCHES = 3

CHAIN_ITERATIONS = 200_000


def _calibration_s() -> float:
    begin = perf_counter()
    total = 0
    for i in range(6_000_000):
        total += i & 7
    return perf_counter() - begin


def _chain(sim: Simulator, iterations: int):
    for _ in range(iterations):
        yield 1


# -- event pooling -----------------------------------------------------------


def test_direct_delay_chain_rearms_instead_of_allocating():
    sim = Simulator()
    sim.process(_chain(sim, 10_000), name="chain")
    sim.run()
    assert sim.ticks_rearmed >= 9_999
    # At most the initial carrier is ever allocated for the chain.
    assert sim.timeouts_created <= 1


def test_pool_recycles_across_processes():
    sim = Simulator()

    def one_shot(sim):
        yield 5

    def spawner(sim):
        for _ in range(50):
            yield sim.process(one_shot(sim), name="shot")

    sim.process(spawner(sim), name="spawner")
    sim.run()
    # Each one-shot needs a carrier; the pool must feed most of them.
    assert sim.timeouts_reused >= 40
    assert sim.timeouts_created <= 10


# -- normalised throughput floor ---------------------------------------------


def test_chain_throughput_clears_3x_pre_fastpath_floor():
    floor = PRE_FASTPATH_CHAIN_EVENTS_PER_CAL * REQUIRED_SPEEDUP
    measured = []
    for _ in range(MAX_BATCHES):
        cal = _calibration_s()
        sim = Simulator()
        sim.process(_chain(sim, CHAIN_ITERATIONS), name="chain")
        begin = perf_counter()
        sim.run()
        wall = perf_counter() - begin
        events_per_cal = (CHAIN_ITERATIONS + 2) / (wall / cal)
        measured.append(events_per_cal)
        if events_per_cal >= floor:
            return
    raise AssertionError(
        f"chain ran at {max(measured):.0f} events/cal-s in the best of "
        f"{MAX_BATCHES} batches; the fast-path floor is {floor:.0f} "
        f"({REQUIRED_SPEEDUP}x the pre-fast-path {PRE_FASTPATH_CHAIN_EVENTS_PER_CAL})"
    )
