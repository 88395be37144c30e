"""Exception types used by the discrete-event simulation kernel."""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for all errors raised by the simulation kernel."""


class EmptySchedule(SimulationError):
    """Raised by the event loops when no events remain.

    :meth:`Simulator.run` catches it: a drained schedule ends a run
    normally unless an ``until`` event is still pending.
    """


class StopSimulation(Exception):
    """Internal control-flow exception that ends :meth:`Simulator.run`.

    Raised when the event passed as ``until`` is processed.  It carries the
    value of that event so ``run`` can return it.
    """

    def __init__(self, value: object) -> None:
        super().__init__(value)
        self.value = value


class RunawaySimulation(SimulationError):
    """Raised by :meth:`Simulator.run` when a watchdog limit is exceeded.

    A non-terminating process (a spin loop that never sees its flag, a
    daemon that re-arms itself forever) would otherwise hang ``run()``
    silently.  The exception carries enough context to diagnose the
    runaway: how many events were processed, where the simulated clock
    stood, and a description of the last event the kernel processed.
    """

    def __init__(
        self,
        limit: str,
        events_processed: int,
        sim_time_ns: int,
        last_event: object = None,
    ) -> None:
        self.limit = limit
        self.events_processed = events_processed
        self.sim_time_ns = sim_time_ns
        #: The last event processed before the watchdog fired (if any).
        self.last_event = last_event
        last = repr(last_event) if last_event is not None else "<none>"
        super().__init__(
            f"simulation exceeded {limit} after {events_processed} events "
            f"at t={sim_time_ns} ns; last event: {last}"
        )


class DeadlockSuspected(SimulationError):
    """Raised when a spin/barrier wait exceeds its configured deadline.

    The runtime's barrier and pickup protocols spin on global-memory
    state that another task is expected to change.  When a deadline is
    configured (``RuntimeParams.barrier_deadline_ns`` /
    ``pickup_deadline_ns``) and the wait outlives it, the spinner raises
    this instead of spinning forever -- e.g. when a fault campaign has
    frozen the cluster whose helper was supposed to detach.
    """

    def __init__(
        self, where: str, waited_ns: int, sim_time_ns: int, detail: str = ""
    ) -> None:
        self.where = where
        self.waited_ns = waited_ns
        self.sim_time_ns = sim_time_ns
        self.detail = detail
        message = (
            f"suspected deadlock at {where}: waited {waited_ns} ns "
            f"(now t={sim_time_ns} ns)"
        )
        if detail:
            message += f"; {detail}"
        super().__init__(message)


class Interrupt(Exception):
    """Raised inside a process when another process interrupts it.

    The ``cause`` attribute carries the object passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: object = None) -> None:
        super().__init__(cause)

    @property
    def cause(self) -> object:
        """The cause passed to :meth:`Process.interrupt`."""
        return self.args[0]
