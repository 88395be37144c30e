"""Unit tests for the packet-level global memory system."""

import pytest

from repro.hardware import CedarConfig, GlobalMemorySystem
from repro.sim import Simulator


def make_memory(**config_kwargs):
    sim = Simulator()
    config = CedarConfig(**config_kwargs)
    return sim, GlobalMemorySystem(sim, config)


def test_single_request_min_latency():
    sim, gm = make_memory()
    done = gm.request(ce_id=0, address=0)
    sim.run(until=done)
    assert sim.now == gm.min_round_trip_ns
    assert gm.stats.completions == 1


def test_min_round_trip_matches_config():
    sim, gm = make_memory()
    assert gm.min_round_trip_ns == gm.config.cycles_to_ns(
        gm.config.min_memory_round_trip_cycles
    )


def test_requests_to_same_module_serialise():
    sim, gm = make_memory()
    d1 = gm.request(0, address=0)
    d2 = gm.request(1, address=8 * 32)  # same module 0
    sim.run(until=sim.all_of([d1, d2]))
    assert sim.now > gm.min_round_trip_ns


def test_requests_to_different_modules_from_different_groups_overlap():
    sim, gm = make_memory()
    d1 = gm.request(0, address=0)        # module 0
    d2 = gm.request(8, address=9 * 8)    # module 9, different stage-0 switch
    sim.run(until=sim.all_of([d1, d2]))
    assert sim.now == gm.min_round_trip_ns


def test_vector_access_pipelines():
    """A 16-word stream takes far less than 16 serial round trips."""
    sim, gm = make_memory()
    proc = sim.process(gm.vector_access(0, base_address=0, n_words=16))
    elapsed = sim.run(until=proc)
    assert elapsed < 16 * gm.min_round_trip_ns
    assert elapsed >= gm.min_round_trip_ns
    assert gm.stats.completions == 16


def test_vector_access_rejects_nonpositive():
    sim, gm = make_memory()
    with pytest.raises(ValueError):
        list(gm.vector_access(0, 0, 0))


def test_mean_round_trip_tracked():
    sim, gm = make_memory()
    done = gm.request(0, 0)
    sim.run(until=done)
    assert gm.stats.mean_round_trip_ns == gm.min_round_trip_ns


def test_contention_grows_with_streaming_ces():
    """More streaming CEs -> longer per-CE stream time (the paper's
    contention mechanism)."""

    def stream_time(n_ces):
        sim, gm = make_memory()
        procs = [
            sim.process(gm.vector_access(ce, base_address=ce * 1024, n_words=32))
            for ce in range(n_ces)
        ]
        sim.run(until=sim.all_of(procs))
        return sim.now

    alone = stream_time(1)
    crowd = stream_time(16)
    assert crowd > alone * 1.5


def test_module_for_address_delegates_to_config():
    sim, gm = make_memory()
    assert gm.module_for_address(16) == gm.config.module_for_address(16)


_DEFAULT = CedarConfig()
_COLLIDING_STRIDE = _DEFAULT.interleave_bytes * _DEFAULT.n_memory_modules


@pytest.mark.parametrize("stride_bytes", [8, 16, 64, _COLLIDING_STRIDE])
def test_vector_access_accounts_every_word(stride_bytes):
    """Per-bank counts and busy time add up for any stride; a stride of
    interleave x modules sends every word to one bank, which serialises."""
    n_words = 32
    sim, gm = make_memory()
    config = gm.config
    proc = sim.process(
        gm.vector_access(3, base_address=40, n_words=n_words, stride_bytes=stride_bytes)
    )
    elapsed = sim.run(until=proc)
    service_ns = config.memory_service_cycles * config.cycle_ns
    assert sum(gm.bank_requests) == n_words
    for module in range(config.n_memory_modules):
        assert gm.bank_busy_ns[module] == gm.bank_requests[module] * service_ns
    assert gm.stats.completions == gm.stats.requests == n_words
    if stride_bytes == _COLLIDING_STRIDE:
        assert gm.bank_requests[gm.module_for_address(40)] == n_words
        assert elapsed >= n_words * service_ns
