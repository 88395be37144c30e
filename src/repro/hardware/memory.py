"""Packet-level model of the Cedar global memory system.

Combines the forward (CE -> memory) network, the 32 interleaved memory
modules (each busy 4 CE cycles per request, Section 7 of the paper),
and the return (memory -> CE) network into a single
:class:`GlobalMemorySystem` that CE processes issue requests to.

Used by network/memory microbenchmarks and to validate the analytic
contention model; application-scale runs use the analytic model.
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass

from repro.hardware.config import CedarConfig
from repro.hardware.network import DeltaNetwork, Packet
from repro.sim.core import Event, Simulator
from repro.sim.resources import Resource

__all__ = ["GlobalMemorySystem", "MemoryStats"]


@dataclass
class MemoryStats:
    """Aggregate statistics for the global memory system."""

    requests: int = 0
    completions: int = 0
    total_round_trip_ns: int = 0

    @property
    def mean_round_trip_ns(self) -> float:
        """Mean request round-trip latency in nanoseconds."""
        if self.completions == 0:
            return 0.0
        return self.total_round_trip_ns / self.completions


class GlobalMemorySystem:
    """The shared global memory reached through the two networks.

    Parameters
    ----------
    sim:
        Owning simulator.
    config:
        Machine configuration (module count, service time, network
        geometry).
    """

    def __init__(self, sim: Simulator, config: CedarConfig) -> None:
        self.sim = sim
        self.config = config
        n_ces = config.n_processors
        self.forward = DeltaNetwork(
            sim,
            n_inputs=n_ces,
            n_outputs=config.n_memory_modules,
            radix=config.switch_radix,
            link_cycles=config.link_cycles,
            queue_depth=config.switch_queue_depth,
            cycle_ns=config.cycle_ns,
        )
        self.backward = DeltaNetwork(
            sim,
            n_inputs=config.n_memory_modules,
            n_outputs=n_ces,
            radix=config.switch_radix,
            link_cycles=config.link_cycles,
            queue_depth=config.switch_queue_depth,
            cycle_ns=config.cycle_ns,
        )
        self._modules = [Resource(sim, capacity=1) for _ in range(config.n_memory_modules)]
        self.stats = MemoryStats()
        n_modules = config.n_memory_modules
        #: Per-bank service (busy) time in nanoseconds.
        self.bank_busy_ns = [0] * n_modules
        #: Per-bank request counts.
        self.bank_requests = [0] * n_modules
        #: Per-bank high-water mark of queued + in-service requests.
        self.bank_queue_high_water = [0] * n_modules

    def module_for_address(self, address: int) -> int:
        """Memory module serving *address* (double-word interleaved)."""
        return self.config.module_for_address(address)

    def request(self, ce_id: int, address: int) -> Event:
        """Issue one memory request; returns its completion event.

        The completion event's value is the delivered response
        :class:`Packet`.  The request passes through the Global
        Interface, the forward network, the addressed module (busy
        ``memory_service_cycles``), and the return network.
        """
        self.stats.requests += 1
        done = self.sim.event()
        self.sim.process(self._request_process(ce_id, address, done), name="gm-request")
        return done

    def _request_process(self, ce_id: int, address: int, done: Event) -> Generator:
        sim = self.sim
        config = self.config
        start = sim.now
        gi_ns = config.gi_cycles * config.cycle_ns
        # Global interface on the way out.
        yield sim.timeout(gi_ns)
        module_id = self.module_for_address(address)
        request = Packet(source=ce_id, dest=module_id, payload=address)
        yield sim.process(self.forward.traverse(request), name="gm-fwd")
        # Module service: one request at a time, 4 cycles each.
        module = self._modules[module_id]
        occupancy = module.count + module.queue_length + 1
        if occupancy > self.bank_queue_high_water[module_id]:
            self.bank_queue_high_water[module_id] = occupancy
        req = module.request()
        yield req
        service_ns = config.memory_service_cycles * config.cycle_ns
        yield sim.timeout(service_ns)
        module.release(req)
        self.bank_busy_ns[module_id] += service_ns
        self.bank_requests[module_id] += 1
        # Response travels back through the second network.
        response = Packet(source=module_id, dest=ce_id, payload=address)
        yield sim.process(self.backward.traverse(response), name="gm-bwd")
        # Global interface on the way in.
        yield sim.timeout(gi_ns)
        self.stats.completions += 1
        self.stats.total_round_trip_ns += sim.now - start
        # Single trigger: `done` is created per request by this access
        # process and completed exactly once, here.
        done.succeed(response)  # cdr: noqa[CDR004]

    def vector_access(
        self, ce_id: int, base_address: int, n_words: int, stride_bytes: int = 8
    ) -> Generator:
        """Process: stream *n_words* pipelined requests, wait for all.

        Models a CE vector access: one request is issued per CE cycle
        (the CEs are pipelined vector processors); the process completes
        when every response has returned.  Returns the elapsed time in
        nanoseconds.
        """
        if n_words <= 0:
            raise ValueError(f"n_words must be positive, got {n_words}")
        sim = self.sim
        start = sim.now
        # One process per word, queueing through the real network and
        # bank resources.
        issue_ns = max(1, int(round(self.config.cycle_ns / self.config.vector_issue_rate)))
        completions = []
        for i in range(n_words):
            done = sim.event()
            self.stats.requests += 1
            sim.process(
                self._request_process(ce_id, base_address + i * stride_bytes, done),
                name="gm-request",
            )
            completions.append(done)
            if i != n_words - 1:
                yield sim.timeout(issue_ns)
        yield sim.all_of(completions)
        return sim.now - start

    @property
    def min_round_trip_ns(self) -> int:
        """Uncontended request round trip in nanoseconds."""
        return self.config.cycles_to_ns(self.config.min_memory_round_trip_cycles)
