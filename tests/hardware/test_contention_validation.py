"""Validation of the analytic contention model against the packet-level
network simulator.

Application-scale runs use the analytic model for speed; these tests
check it against packet-level measurements in the regimes the
applications exercise: single streams, few streams, many streams.
The analytic model also contains the cluster-channel centre the packet
model does not represent, so agreement is checked loosely (factor-level)
at high load and tightly at low load.
"""

import pytest

from repro.hardware import CedarConfig, ContentionModel, GlobalMemorySystem
from repro.sim import Simulator


def packet_level_stream_time(n_ces: int, n_words: int) -> float:
    """Mean per-CE stream completion time (ns) at packet level, the
    reference these validations are stated against."""
    sim = Simulator()
    config = CedarConfig()
    memory = GlobalMemorySystem(sim, config)
    times = []

    def stream(ce):
        elapsed = yield sim.process(
            memory.vector_access(ce, base_address=ce * 8192, n_words=n_words)
        )
        times.append(elapsed)

    procs = [sim.process(stream(ce)) for ce in range(n_ces)]
    sim.run(until=sim.all_of(procs))
    return sum(times) / len(times)


def analytic_stream_time(n_ces: int, n_words: int) -> float:
    config = CedarConfig()
    model = ContentionModel(config)
    cluster = min(n_ces, config.ces_per_cluster)
    cycles = model.vector_time_cycles(
        n_words, requesters=n_ces, rate=1.0, cluster_requesters=cluster
    )
    return cycles * config.cycle_ns


def test_single_stream_agreement():
    """With one CE both models are dominated by issue rate + latency."""
    packet = packet_level_stream_time(1, 64)
    analytic = analytic_stream_time(1, 64)
    assert analytic == pytest.approx(packet, rel=0.35)


def test_light_load_agreement():
    packet = packet_level_stream_time(4, 64)
    analytic = analytic_stream_time(4, 64)
    assert analytic == pytest.approx(packet, rel=0.6)


def test_heavy_load_same_direction():
    """Both models agree that 16 streams are much slower than 1."""
    packet_ratio = packet_level_stream_time(16, 64) / packet_level_stream_time(1, 64)
    analytic_ratio = analytic_stream_time(16, 64) / analytic_stream_time(1, 64)
    assert packet_ratio > 1.3
    assert analytic_ratio > 1.3
    # Within a factor of ~2.5 of each other.
    assert 0.4 < analytic_ratio / packet_ratio < 2.5


def test_analytic_is_monotone_like_packet_level():
    packet = [packet_level_stream_time(n, 48) for n in (1, 4, 8, 16)]
    analytic = [analytic_stream_time(n, 48) for n in (1, 4, 8, 16)]
    assert packet == sorted(packet)
    assert analytic == sorted(analytic)
