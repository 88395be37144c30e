"""Event vocabulary of the instrumented runtime library and OS.

Mirrors the instrumentation described in Section 4 of the paper: the
Cedar Fortran runtime library and the Xylem OS were instrumented to
post events to hardware performance trigger points, recorded by the
external ``cedarhpm`` monitor.
"""

from __future__ import annotations

import enum

__all__ = ["EventType", "TraceEvent", "RTL_EVENTS", "OS_EVENTS"]


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

    def __reduce__(self) -> tuple:
        # Positional arguments pickle in about half the bytes and time of
        # the default slots-state dict; a cell's snapshot holds tens of
        # thousands of events, and every cache write pickles them all.
        return (
            TraceEvent,
            (
                self.event_type,
                self.timestamp_ns,
                self.processor_id,
                self.task_id,
                self.payload,
            ),
        )

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
