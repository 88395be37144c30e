"""Packet-level model of Cedar's multistage shuffle-exchange network.

Cedar connects 32 CEs to 32 global-memory modules through *two*
unidirectional two-stage networks built from 8x8 crossbar switches --
one for the CE -> memory direction and one for memory -> CE
(Section 2 of the paper).  This module implements a generic buffered
*delta* network with digit-based routing: destination digit ``k``
selects the output port at stage ``k``, so every input/output pair has
a unique path, and packets heading for the same output port queue in a
bounded buffer (store-and-forward with backpressure, which is what
produces tree saturation under hot-spot traffic, cf. Pfister & Norton).

The packet-level model is used for network microbenchmarks and to
validate the analytic contention model in
:mod:`repro.hardware.contention`; application-scale simulations use the
analytic model for speed.
"""

from __future__ import annotations

import math
from collections.abc import Generator
from dataclasses import dataclass, field

from repro.sim.core import Simulator
from repro.sim.resources import Resource, Store

__all__ = ["Packet", "DeltaNetwork", "NetworkStats"]


@dataclass
class Packet:
    """A request or response travelling through one network.

    Attributes
    ----------
    source, dest:
        Input and output endpoint indices of the network being
        traversed.
    inject_ns, deliver_ns:
        Simulated times of injection and delivery (filled in by the
        network).
    payload:
        Arbitrary caller data carried along (e.g. the memory address).
    """

    source: int
    dest: int
    payload: object = None
    inject_ns: int = -1
    deliver_ns: int = -1

    @property
    def latency_ns(self) -> int:
        """Delivery latency in nanoseconds (valid once delivered)."""
        if self.deliver_ns < 0:
            raise ValueError("packet has not been delivered")
        return self.deliver_ns - self.inject_ns


@dataclass
class NetworkStats:
    """Aggregate traffic statistics for one :class:`DeltaNetwork`."""

    packets_injected: int = 0
    packets_delivered: int = 0
    total_latency_ns: int = 0
    #: Per-(stage, port-key) count of packets forwarded.
    port_traffic: dict = field(default_factory=dict)
    #: Per-(stage, switch, port) high-water mark of buffered packets.
    queue_high_water: dict = field(default_factory=dict)

    @property
    def mean_latency_ns(self) -> float:
        """Mean packet delivery latency in nanoseconds."""
        if self.packets_delivered == 0:
            return 0.0
        return self.total_latency_ns / self.packets_delivered


class _OutputPort:
    """One crossbar output port: a bounded buffer plus a serial link."""

    __slots__ = ("buffer", "link")

    def __init__(self, sim: Simulator, queue_depth: int) -> None:
        self.buffer = Store(sim, capacity=queue_depth)
        self.link = Resource(sim, capacity=1)


class DeltaNetwork:
    """A buffered, digit-routed multistage interconnection network.

    Parameters
    ----------
    sim:
        Owning simulator.
    n_inputs, n_outputs:
        Endpoint counts.
    radix:
        Crossbar switch size (8 for Cedar).
    link_cycles:
        CE cycles to forward one packet through one switch hop.
    queue_depth:
        Output-port buffer depth in packets.
    cycle_ns:
        CE cycle time in nanoseconds.

    Notes
    -----
    With 32 endpoints and radix 8 the network has two stages: four
    fully-used 8x8 switches feeding eight partially-populated switches,
    matching Cedar's two-stage organisation.  The per-stage fanouts are
    computed so that the product covers ``n_outputs``; routing digit
    ``k`` of the destination selects the port at stage ``k``.
    """

    def __init__(
        self,
        sim: Simulator,
        n_inputs: int,
        n_outputs: int,
        radix: int = 8,
        link_cycles: int = 2,
        queue_depth: int = 4,
        cycle_ns: int = 170,
    ) -> None:
        if n_inputs <= 0 or n_outputs <= 0:
            raise ValueError("endpoint counts must be positive")
        if radix < 2:
            raise ValueError(f"radix must be >= 2, got {radix}")
        self.sim = sim
        self.n_inputs = n_inputs
        self.n_outputs = n_outputs
        self.radix = radix
        self.link_cycles = link_cycles
        self.queue_depth = queue_depth
        self.cycle_ns = cycle_ns
        self.stats = NetworkStats()
        self._fanouts = self._compute_fanouts(n_outputs, radix)
        # suffix_products[k] = product of fanouts after stage k.
        self._suffix = [1] * (len(self._fanouts) + 1)
        for k in range(len(self._fanouts) - 1, -1, -1):
            self._suffix[k] = self._suffix[k + 1] * self._fanouts[k]
        self._ports: dict[tuple[int, int, int], _OutputPort] = {}

    # -- topology -------------------------------------------------------

    @staticmethod
    def _compute_fanouts(n_outputs: int, radix: int) -> list[int]:
        """Per-stage output fanouts whose product covers ``n_outputs``."""
        stages = max(1, math.ceil(math.log(n_outputs, radix))) if n_outputs > 1 else 1
        fanouts = [radix] * (stages - 1)
        last = math.ceil(n_outputs / radix ** (stages - 1))
        fanouts.append(last)
        return fanouts

    @property
    def n_stages(self) -> int:
        """Number of switch stages."""
        return len(self._fanouts)

    def route(self, source: int, dest: int) -> list[tuple[int, int, int]]:
        """Unique path of (stage, switch, port) hops from *source* to *dest*."""
        if not 0 <= source < self.n_inputs:
            raise ValueError(f"source {source} out of range")
        if not 0 <= dest < self.n_outputs:
            raise ValueError(f"dest {dest} out of range")
        hops = []
        for stage in range(self.n_stages):
            if stage == 0:
                switch = source // self.radix
            else:
                # Stage-k switch identity is the port-prefix taken so far.
                switch = dest // self._suffix[stage]
            port = (dest // self._suffix[stage + 1]) % self._fanouts[stage]
            hops.append((stage, switch, port))
        return hops

    def _port(self, hop: tuple[int, int, int]) -> _OutputPort:
        port = self._ports.get(hop)
        if port is None:
            port = _OutputPort(self.sim, self.queue_depth)
            self._ports[hop] = port
        return port

    # -- traversal -------------------------------------------------------

    def traverse(self, packet: Packet) -> Generator:
        """Simulation process moving *packet* from input to output.

        Yields until the packet has been delivered; the caller decides
        what delivery means (e.g. handing the request to a memory
        module).  Store-and-forward: the packet holds its current
        buffer slot until it has obtained a slot in the next stage, so
        a full downstream buffer backpressures upstream ports.
        """
        sim = self.sim
        packet.inject_ns = sim.now
        self.stats.packets_injected += 1
        link_ns = self.link_cycles * self.cycle_ns
        previous_buffer: Store | None = None
        for hop in self.route(packet.source, packet.dest):
            port = self._port(hop)
            # Wait for buffer space at this hop (backpressure point).
            yield port.buffer.put(packet)
            depth = len(port.buffer)
            water = self.stats.queue_high_water
            if depth > water.get(hop, 0):
                water[hop] = depth
            if previous_buffer is not None:
                # The slot at the previous hop is now free.
                previous_buffer.get()
            # Serialise transmission through the port's link.
            req = port.link.request()
            yield req
            yield sim.timeout(link_ns)
            port.link.release(req)
            traffic = self.stats.port_traffic
            traffic[hop] = traffic.get(hop, 0) + 1
            previous_buffer = port.buffer
        if previous_buffer is not None:
            previous_buffer.get()
        packet.deliver_ns = sim.now
        self.stats.packets_delivered += 1
        self.stats.total_latency_ns += packet.latency_ns
        return packet

    def min_latency_ns(self) -> int:
        """Uncontended traversal latency in nanoseconds."""
        return self.n_stages * self.link_cycles * self.cycle_ns
