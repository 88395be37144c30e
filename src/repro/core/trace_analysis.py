"""Reconstruction of activity intervals from cedarhpm event traces.

The paper's Sections 5-7 analyses all start from the off-loaded event
traces; this module pairs the trace's enter/exit events (per
processor, per kind).  :func:`pair_events` is the one pairing routine:
:func:`extract_intervals` builds the :class:`Interval` list the
exporter module consumes from it, and the breakdown and concurrency
modules' one-pass scans read the same pairs.  All read the trace's
columns as rows (:meth:`~repro.hpm.events.EventList.rows`) and build
no :class:`~repro.hpm.events.TraceEvent`.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from typing import Any

from repro.hpm.events import EventList, EventType, Row

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
    rows: Iterable[Row], end_ns: int | None = None
) -> Iterator[tuple[Row, int]]:
    """Pair enter/exit rows: yield ``(opener, close_ns)`` per interval.

    *rows* are trace records as :meth:`~repro.hpm.events.EventList.rows`
    gives them.  Events are paired per (processor, kind), LIFO when the
    same kind nests on one processor (e.g. serialised OS services
    recorded back-to-back), and yielded as each close is read; after
    the last row every unclosed opener is yielded with *end_ns* when
    given, otherwise dropped.  Raises ``ValueError`` on a close without
    a matching open, which would indicate corrupt instrumentation.

    The one pairing routine: :func:`extract_intervals`, the user-time
    breakdown and the concurrency module's loop index consume it.
    """
    open_rows: dict[tuple[Any, int], list[Row]] = {}
    for row in rows:
        etype = row[0]
        if etype in _PAIRS:
            open_rows.setdefault((row[2], etype), []).append(row)
        elif etype in _CLOSERS:
            opener_type = _CLOSERS[etype]
            stack = open_rows.get((row[2], opener_type))
            if not stack:
                raise ValueError(
                    f"{EventType(etype).name} without matching {opener_type.name} on "
                    f"processor {row[2]} at t={row[1]}"
                )
            yield stack.pop(), row[1]
    if end_ns is not None:
        for stack in open_rows.values():
            for opener in stack:
                yield opener, end_ns


def extract_intervals(events: EventList, end_ns: int | None = None) -> list[Interval]:
    """Pair enter/exit events into intervals sorted by (start, end).

    Pairing follows :func:`pair_events`: LIFO per (processor, kind), an
    unclosed interval closed at *end_ns* when given (otherwise dropped),
    and ``ValueError`` on a close without a matching open.
    """
    intervals = [
        Interval(
            kind=_PAIRS[etype][1],
            processor_id=processor,
            task_id=task,
            start_ns=start,
            end_ns=close_ns,
            payload=payload,
        )
        for (etype, start, processor, task, payload), close_ns in pair_events(
            events.rows(), end_ns
        )
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
