"""The ``cedarhpm`` hardware performance monitor model.

The real monitor is an external, non-intrusive tracing facility
developed at UICSRD: instrumented code posts events to hardware trigger
points; the monitor records ``(event id, timestamp, processor id)``
into trace buffers with 50 ns timestamp resolution, and the buffers are
off-loaded for analysis after the run (Section 4).  Recording costs one
move instruction, i.e. negligible time, so the model charges no
simulated time for recording.
"""

from __future__ import annotations

from repro.hpm.events import EventList, EventType
from repro.sim.core import Simulator

__all__ = ["CedarHpm"]


class CedarHpm:
    """Non-intrusive event-trace monitor with 50 ns resolution.

    Parameters
    ----------
    sim:
        Simulator whose clock timestamps the events.
    resolution_ns:
        Timestamp quantisation (50 ns for the real monitor).
    iteration_events:
        Also record the per-iteration ``PICKUP_*``/``ITER_*`` events.
    """

    def __init__(
        self, sim: Simulator, resolution_ns: int = 50, iteration_events: bool = False
    ) -> None:
        if resolution_ns <= 0:
            raise ValueError(f"resolution_ns must be positive, got {resolution_ns}")
        self.sim = sim
        self.resolution_ns = resolution_ns
        self.iteration_events = iteration_events
        #: The trace buffer, written in columns as events are recorded.
        self.events = EventList()
        #: ``[intervals, ns]`` by ``(task, "pickup"|"iteration", construct)``, added
        #: by the runtime's loop frames, each end quantised as :meth:`record` does.
        self.summary: dict[tuple[int, str, str], list[int]] = {}

    def record(
        self,
        event_type: EventType,
        processor_id: int,
        task_id: int = -1,
        payload: object = None,
    ) -> None:
        """Record one event at the current simulated time."""
        resolution = self.resolution_ns
        self.events.append(
            event_type,
            (self.sim.now // resolution) * resolution,
            processor_id,
            task_id,
            payload,
        )

    def offload(self) -> EventList:
        """The trace buffer, in record order (the off-loaded buffer)."""
        return self.events
