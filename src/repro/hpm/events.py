"""Event vocabulary of the instrumented runtime library and OS.

Mirrors the instrumentation described in Section 4 of the paper: the
Cedar Fortran runtime library and the Xylem OS were instrumented to
post events to hardware performance trigger points, recorded by the
external ``cedarhpm`` monitor.
"""

from __future__ import annotations

import enum
from array import array
from collections.abc import Iterable, Iterator, Sequence
from typing import Any, overload

__all__ = ["EventType", "TraceEvent", "EventList", "Row", "RTL_EVENTS", "OS_EVENTS"]


class EventType(enum.IntEnum):
    """Identifiers of the instrumented events."""

    # -- runtime library events (Section 4, items a-f of the RTL list) --
    #: Main task encounters an s(x)doall loop and posts it.
    LOOP_POST = 1
    #: A helper task joins the execution of a posted loop.
    HELPER_JOIN = 2
    #: Entry to the pick-next-iteration routine.
    PICKUP_ENTER = 3
    #: Exit from the pick-next-iteration routine.
    PICKUP_EXIT = 4
    #: Start of one s(x)doall iteration's execution.
    ITER_START = 5
    #: End of one s(x)doall iteration's execution.
    ITER_END = 6
    #: Main task enters the s(x)doall finish barrier.
    BARRIER_ENTER = 7
    #: Main task leaves the s(x)doall finish barrier.
    BARRIER_EXIT = 8
    #: Helper task starts busy-waiting for parallel-loop work.
    WAIT_WORK_ENTER = 9
    #: Helper task stops busy-waiting (work arrived or program ended).
    WAIT_WORK_EXIT = 10
    #: Entry to loop-parameter setup.
    SETUP_ENTER = 11
    #: Exit from loop-parameter setup.
    SETUP_EXIT = 12
    #: Start of a main-cluster-only loop (application instrumentation).
    MC_LOOP_START = 13
    #: End of a main-cluster-only loop.
    MC_LOOP_END = 14
    #: End of the posted loop for this task (detach).
    LOOP_DETACH = 15
    #: Start of a serial code section on the main task.
    SERIAL_START = 16
    #: End of a serial code section on the main task.
    SERIAL_END = 17
    #: Program begin / end markers (main task).
    PROGRAM_START = 18
    PROGRAM_END = 19

    # -- operating system events (Section 4, items a-f of the OS list) --
    #: Kernel lock acquire attempt begins (may spin).
    LOCK_ACQUIRE_ENTER = 32
    #: Kernel lock acquired.
    LOCK_ACQUIRE_EXIT = 33
    #: Kernel lock released.
    LOCK_RELEASE = 34
    #: Context switch routine entry/exit.
    CTX_SWITCH_ENTER = 35
    CTX_SWITCH_EXIT = 36
    #: Resource scheduling routine entry/exit.
    SCHED_ENTER = 37
    SCHED_EXIT = 38
    #: System call entry/exit.
    SYSCALL_ENTER = 39
    SYSCALL_EXIT = 40
    #: System trap (page fault) entry/exit.
    TRAP_ENTER = 41
    TRAP_EXIT = 42
    #: Interrupt service entry/exit (incl. cross-processor interrupts).
    INTERRUPT_ENTER = 43
    INTERRUPT_EXIT = 44
    #: Asynchronous system trap service entry/exit.
    AST_ENTER = 45
    AST_EXIT = 46
    #: Context-switch identifier: application task scheduled in/out.
    APP_RUNNING = 47
    APP_PREEMPTED = 48


#: Events posted by the runtime-library instrumentation.
RTL_EVENTS = frozenset(e for e in EventType if e < EventType.LOCK_ACQUIRE_ENTER)

#: Events posted by the operating-system instrumentation.
OS_EVENTS = frozenset(e for e in EventType if e >= EventType.LOCK_ACQUIRE_ENTER)


class TraceEvent:
    """One recorded event: id, timestamp and processor id (Section 4).

    ``cedarhpm`` records the event id, a 50 ns-resolution timestamp and
    the id of the processor the event occurred on; ``payload`` carries
    optional context (loop id, lock id, ...) the analysis may use.
    """

    __slots__ = ("event_type", "timestamp_ns", "processor_id", "task_id", "payload")

    def __init__(
        self,
        event_type: EventType,
        timestamp_ns: int,
        processor_id: int,
        task_id: int = -1,
        payload: object = None,
    ) -> None:
        self.event_type = event_type
        self.timestamp_ns = timestamp_ns
        self.processor_id = processor_id
        self.task_id = task_id
        self.payload = payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceEvent({self.event_type.name}, t={self.timestamp_ns}, "
            f"ce={self.processor_id}, task={self.task_id})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceEvent):
            return NotImplemented
        return (
            self.event_type == other.event_type
            and self.timestamp_ns == other.timestamp_ns
            and self.processor_id == other.processor_id
            and self.task_id == other.task_id
            and self.payload == other.payload
        )


#: One trace record as :meth:`EventList.rows` yields it:
#: ``(type byte, timestamp, processor, task, payload)``.
Row = tuple[int, Any, Any, Any, Any]

#: Event type by its one-byte wire value.
_EVENT_TYPES = {event_type.value: event_type for event_type in EventType}

#: Every valid one-byte event type, for the load-time check.
_TYPE_BYTES = bytes(_EVENT_TYPES)

#: Signed ``array`` typecodes, narrowest first, with the range each holds.
_INT_CODES = tuple(
    (code, -(1 << (8 * size - 1)), (1 << (8 * size - 1)) - 1)
    for code, size in (("b", 1), ("h", 2), ("i", 4), ("q", 8))
)


def _int_column(values: Sequence[Any]) -> Sequence[Any]:
    """*values* as the narrowest signed ``array`` that holds them exactly.

    Falls back to the plain list when a value is not an ``int`` in the
    64-bit range, so an odd field still round-trips unchanged.
    """
    if set(map(type, values)) <= {int}:
        low, high = min(values, default=0), max(values, default=0)
        for code, code_min, code_max in _INT_CODES:
            if code_min <= low and high <= code_max:
                return array(code, values)
    return values


class EventList(Sequence[TraceEvent]):
    """A cedarhpm trace buffer, held as one column per record field.

    The monitor appends each record straight into the columns: the
    event-type byte, the timestamp (a 64-bit ``array``), the processor,
    the task and a slot in the table of distinct payloads.  Payloads are
    interned by identity, so the table holds exactly the objects the
    events shared.  The same list is the run's trace from the first
    record to the result cache: :meth:`rows` hands the analysis plain
    ``(type byte, timestamp, processor, task, payload)`` tuples, and a
    :class:`TraceEvent` is built only when a caller indexes or iterates
    the list.

    Pickling hands over the columns, each int column narrowed to the
    smallest ``array`` that holds it exactly, so a cell's trace costs a
    few bytes per event across a process boundary or on disk.  A loaded
    list keeps those narrowed columns, pickles them again unchanged,
    and is not appended to.  The load validates the columns: unequal
    lengths, an unknown event-type byte or a payload index out of range
    fail it with ``ValueError``, never a later read.
    """

    __slots__ = ("types", "timestamps", "processors", "tasks", "payloads", "index", "_slot_of")

    def __init__(self, events: Iterable[TraceEvent] = ()) -> None:
        self.types: bytearray | bytes = bytearray()
        self.timestamps: Any = array("q")
        self.processors: Any = []
        self.tasks: Any = []
        self.payloads: list[Any] = []
        self.index: Any = []
        #: Payload slot by ``id(payload)``, for interning while recording.
        self._slot_of: dict[int, int] = {}
        for event in events:
            self.append(
                event.event_type,
                event.timestamp_ns,
                event.processor_id,
                event.task_id,
                event.payload,
            )

    def append(
        self,
        event_type: int,
        timestamp_ns: int,
        processor_id: int,
        task_id: int = -1,
        payload: object = None,
    ) -> None:
        """Append one record to the columns."""
        slot = self._slot_of.get(id(payload))
        if slot is None:
            slot = self._slot_of[id(payload)] = len(self.payloads)
            self.payloads.append(payload)
        try:
            self.timestamps.append(timestamp_ns)
        except (TypeError, OverflowError):
            # Not an int64: only hand-built traces hold such a field.
            self.timestamps = [*self.timestamps, timestamp_ns]
        self.types.append(event_type)  # type: ignore[union-attr]
        self.processors.append(processor_id)
        self.tasks.append(task_id)
        self.index.append(slot)

    def rows(self) -> Iterator[Row]:
        """One :data:`Row` per event, in record order; builds no event object."""
        return zip(
            self.types,
            self.timestamps,
            self.processors,
            self.tasks,
            map(self.payloads.__getitem__, self.index),
        )

    def __len__(self) -> int:
        return len(self.types)

    @overload
    def __getitem__(self, index: int) -> TraceEvent: ...

    @overload
    def __getitem__(self, index: slice) -> list[TraceEvent]: ...

    def __getitem__(self, index: int | slice) -> TraceEvent | list[TraceEvent]:
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        return TraceEvent(
            _EVENT_TYPES[self.types[index]],
            self.timestamps[index],
            self.processors[index],
            self.tasks[index],
            self.payloads[self.index[index]],
        )

    def __iter__(self) -> Iterator[TraceEvent]:
        return map(
            TraceEvent,
            map(_EVENT_TYPES.__getitem__, self.types),
            self.timestamps,
            self.processors,
            self.tasks,
            map(self.payloads.__getitem__, self.index),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (EventList, list)):
            return NotImplemented
        return list(self) == list(other)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EventList(<{len(self)} events>)"

    def __reduce__(self) -> tuple[Any, ...]:
        if isinstance(self.types, bytes):
            # Loaded: the columns are narrowed already and go out as they came.
            return (
                _events_from_columns,
                (
                    self.types,
                    self.timestamps,
                    self.processors,
                    self.tasks,
                    self.payloads,
                    self.index,
                ),
            )
        return (
            _events_from_columns,
            (
                bytes(self.types),
                _int_column(self.timestamps),
                _int_column(self.processors),
                _int_column(self.tasks),
                self.payloads,
                _int_column(self.index),
            ),
        )


def _events_from_columns(
    types: bytes,
    timestamps: Sequence[Any],
    processors: Sequence[Any],
    tasks: Sequence[Any],
    payloads: list[Any],
    index: Sequence[int],
) -> EventList:
    """An :class:`EventList` over its pickled columns.

    Validates the columns here, at load, so a damaged trace fails the
    unpickling rather than a later read.
    """
    n = len(types)
    if not len(timestamps) == len(processors) == len(tasks) == len(index) == n:
        raise ValueError("event columns differ in length")
    if types.translate(None, _TYPE_BYTES):
        raise ValueError("unknown event type byte")
    if n and not 0 <= min(index) <= max(index) < len(payloads):
        raise ValueError("payload index out of range")
    events = EventList()
    events.types, events.timestamps, events.processors = types, timestamps, processors
    events.tasks, events.payloads, events.index = tasks, payloads, index
    return events
