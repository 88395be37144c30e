"""Unit tests for the assembled CedarMachine and cluster models."""

import pytest

from repro.hardware import CedarConfig, CedarMachine, Cluster, paper_configuration
from repro.sim import Simulator


def make_machine(n_proc=32):
    sim = Simulator()
    machine = CedarMachine(sim, paper_configuration(n_proc))
    return sim, machine


def test_machine_builds_clusters():
    _, machine = make_machine(32)
    assert len(machine.clusters) == 4
    assert machine.n_processors == 32
    assert len(machine.all_ces()) == 32


def test_ce_lookup_by_global_id():
    _, machine = make_machine(32)
    ce = machine.ce(19)
    assert ce.ce_id == 19
    assert ce.cluster_id == 2
    assert ce.local_id == 3


def test_ce_ids_are_dense_and_ordered():
    _, machine = make_machine(16)
    ids = [ce.ce_id for ce in machine.all_ces()]
    assert ids == list(range(16))


def test_cluster_rejects_bad_id():
    sim = Simulator()
    config = CedarConfig()
    with pytest.raises(ValueError):
        Cluster(sim, config, 7)


def test_ccbus_costs_are_small_and_counted():
    _, machine = make_machine(8)
    bus = machine.clusters[0].ccbus
    d = bus.dispatch_ns()
    s = bus.synchronise_ns()
    assert 0 < d < 5_000  # well under 5 microseconds
    assert 0 < s < 5_000
    assert bus.dispatches == 1
    assert bus.synchronisations == 1


def test_memory_burst_registers_load():
    sim, machine = make_machine(32)
    observed = []

    def burster(sim, machine):
        yield sim.process(machine.memory_burst(n_words=64, rate=0.5))

    def spy(sim, machine):
        yield sim.timeout(1)
        observed.append(machine.load.active)

    sim.process(burster(sim, machine))
    sim.process(spy(sim, machine))
    sim.run()
    assert observed == [1]
    assert machine.load.active == 0


def test_concurrent_bursts_slower_than_solo():
    def total_time(n_ces):
        sim, machine = make_machine(32)
        procs = [
            sim.process(machine.memory_burst(n_words=256, rate=0.8))
            for _ in range(n_ces)
        ]
        sim.run(until=sim.all_of(procs))
        return sim.now

    solo = total_time(1)
    crowd = total_time(24)
    assert crowd > solo


def test_ideal_burst_matches_single_requester():
    sim, machine = make_machine(32)
    proc = sim.process(machine.memory_burst(n_words=128, rate=0.5))
    sim.run(until=proc)
    assert sim.now == machine.ideal_burst_ns(128, 0.5)


def test_global_round_trip_grows_with_load():
    sim, machine = make_machine(32)
    quiet = machine.global_round_trip_ns()
    for _ in range(24):
        machine.load.enter()
    busy = machine.global_round_trip_ns()
    assert busy >= quiet

