"""Reconstruction of activity intervals from cedarhpm event traces.

The paper's Sections 5-7 analyses all start from the off-loaded event
traces; this module pairs the flat event list's enter/exit events
(per processor, per kind).  :func:`pair_events` is the one pairing
routine: :func:`extract_intervals` builds the :class:`Interval` list
the breakdown and exporter modules consume from it, and the
concurrency module's one-pass loop index reads the same pairs.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from repro.hpm.events import EventType, TraceEvent

__all__ = ["IntervalKind", "Interval", "extract_intervals", "intervals_of", "pair_events"]


class IntervalKind(enum.Enum):
    """Kinds of reconstructed activity intervals."""

    SERIAL = "serial"
    MC_LOOP = "mc_loop"
    SETUP = "setup"
    PICKUP = "pickup"
    ITERATION = "iteration"
    BARRIER = "barrier"
    HELPER_WAIT = "helper_wait"
    SYSCALL = "syscall"
    INTERRUPT = "interrupt"
    AST = "ast"
    CTX = "ctx"
    PROGRAM = "program"


#: (open event, close event) -> interval kind.
_PAIRS: dict[EventType, tuple[EventType, IntervalKind]] = {
    EventType.SERIAL_START: (EventType.SERIAL_END, IntervalKind.SERIAL),
    EventType.MC_LOOP_START: (EventType.MC_LOOP_END, IntervalKind.MC_LOOP),
    EventType.SETUP_ENTER: (EventType.SETUP_EXIT, IntervalKind.SETUP),
    EventType.PICKUP_ENTER: (EventType.PICKUP_EXIT, IntervalKind.PICKUP),
    EventType.ITER_START: (EventType.ITER_END, IntervalKind.ITERATION),
    EventType.BARRIER_ENTER: (EventType.BARRIER_EXIT, IntervalKind.BARRIER),
    EventType.WAIT_WORK_ENTER: (EventType.WAIT_WORK_EXIT, IntervalKind.HELPER_WAIT),
    EventType.SYSCALL_ENTER: (EventType.SYSCALL_EXIT, IntervalKind.SYSCALL),
    EventType.INTERRUPT_ENTER: (EventType.INTERRUPT_EXIT, IntervalKind.INTERRUPT),
    EventType.AST_ENTER: (EventType.AST_EXIT, IntervalKind.AST),
    EventType.CTX_SWITCH_ENTER: (EventType.CTX_SWITCH_EXIT, IntervalKind.CTX),
    EventType.PROGRAM_START: (EventType.PROGRAM_END, IntervalKind.PROGRAM),
}

_CLOSERS = {closer: opener for opener, (closer, _) in _PAIRS.items()}


@dataclass(frozen=True)
class Interval:
    """One reconstructed activity interval."""

    kind: IntervalKind
    processor_id: int
    task_id: int
    start_ns: int
    end_ns: int
    #: Payload of the opening event (loop seq/construct/label tuple
    #: for runtime events).
    payload: object = None

    @property
    def duration_ns(self) -> int:
        """Interval length in nanoseconds."""
        return self.end_ns - self.start_ns

    @property
    def construct(self) -> str | None:
        """Loop construct name from the payload, if present."""
        if isinstance(self.payload, tuple) and len(self.payload) >= 2:
            return self.payload[1]
        return None

    @property
    def loop_seq(self) -> int | None:
        """Posted-loop sequence number from the payload, if present."""
        if isinstance(self.payload, tuple) and len(self.payload) >= 1:
            return self.payload[0]
        return None


def pair_events(
    events: Iterable[TraceEvent], end_ns: int | None = None
) -> Iterator[tuple[TraceEvent, int]]:
    """Pair enter/exit events: yield ``(opener, close_ns)`` per interval.

    Events are paired per (processor, kind), LIFO when the same kind
    nests on one processor (e.g. serialised OS services recorded
    back-to-back), and yielded as each close is read; after the last
    event every unclosed opener is yielded with *end_ns* when given,
    otherwise dropped.  Raises ``ValueError`` on a close without a
    matching open, which would indicate corrupt instrumentation.

    The one pairing routine: :func:`extract_intervals` and the
    concurrency module's loop index both consume it.
    """
    open_events: dict[tuple[int, EventType], list[TraceEvent]] = {}
    for event in events:
        etype = event.event_type
        if etype in _PAIRS:
            key = (event.processor_id, etype)
            open_events.setdefault(key, []).append(event)
        elif etype in _CLOSERS:
            opener_type = _CLOSERS[etype]
            stack = open_events.get((event.processor_id, opener_type))
            if not stack:
                raise ValueError(
                    f"{etype.name} without matching {opener_type.name} on "
                    f"processor {event.processor_id} at t={event.timestamp_ns}"
                )
            yield stack.pop(), event.timestamp_ns
    if end_ns is not None:
        for stack in open_events.values():
            for opener in stack:
                yield opener, end_ns


def extract_intervals(
    events: Iterable[TraceEvent], end_ns: int | None = None
) -> list[Interval]:
    """Pair enter/exit events into intervals sorted by (start, end).

    Pairing follows :func:`pair_events`: LIFO per (processor, kind), an
    unclosed interval closed at *end_ns* when given (otherwise dropped),
    and ``ValueError`` on a close without a matching open.
    """
    intervals = [
        Interval(
            kind=_PAIRS[opener.event_type][1],
            processor_id=opener.processor_id,
            task_id=opener.task_id,
            start_ns=opener.timestamp_ns,
            end_ns=close_ns,
            payload=opener.payload,
        )
        for opener, close_ns in pair_events(events, end_ns)
    ]
    intervals.sort(key=lambda iv: (iv.start_ns, iv.end_ns))
    return intervals


def intervals_of(
    intervals: list[Interval],
    kind: IntervalKind,
    task_id: int | None = None,
    construct: str | None = None,
) -> list[Interval]:
    """Filter intervals by kind and optionally task and construct."""
    out = []
    for interval in intervals:
        if interval.kind is not kind:
            continue
        if task_id is not None and interval.task_id != task_id:
            continue
        if construct is not None and interval.construct != construct:
            continue
        out.append(interval)
    return out
