"""Discrete-event simulation kernel.

This module implements a small, dependency-free, generator-based
discrete-event simulator in the style of SimPy.  Simulation *processes*
are Python generators that ``yield`` :class:`Event` objects; the
:class:`Simulator` resumes a process when the event it waits on is
processed.

The simulated clock is a plain integer.  Throughout this project one
clock unit is one **nanosecond** of Cedar time, which comfortably covers
both the 50 ns resolution of the ``cedarhpm`` monitor modelled in
:mod:`repro.hpm` and the 170 ns CE cycle of the modelled hardware.

Fast paths
----------
The kernel is the innermost loop of every sweep cell, so a few hot-path
representations deviate from the textbook implementation (behaviour is
identical; see ``docs/architecture.md`` "Kernel fast paths"):

* ``Event.callbacks`` is a *variant* field: ``None`` once processed,
  the :data:`_NO_WAITERS` sentinel while nobody waits, a bare callable
  for the (dominant) single-waiter case, and a ``list`` only once two
  or more waiters subscribe.  Single-waiter events never allocate a
  callback list.
* Heap entries are ``((when << 1) | priority, eid, event)`` 3-tuples.
  With ``URGENT == 0`` and ``NORMAL == 1`` the packed integer key
  preserves exactly the old ``(when, priority, eid)`` ordering.
* :meth:`Simulator.timeout` recycles :class:`Timeout` objects through a
  free-list pool.  An event is only recycled when the run loop holds
  the sole remaining reference (checked via ``sys.getrefcount``), so
  user code that keeps a timeout around never observes reuse.
* :meth:`Simulator.run` picks one of two loops: a minimal loop when no
  trace sink and no watchdog is installed, and a checked loop that
  carries the runaway-simulation limits and skips every hook the sink
  does not override (see :meth:`repro.obs.tracing.TraceSink.overrides`).
* :class:`Condition` unsubscribes from still-pending child events as
  soon as it triggers, so the losing side of an ``any_of`` race becomes
  a no-waiter event instead of invoking a stale callback.
* A process may yield a bare non-negative ``int`` as shorthand for
  ``sim.timeout(n)`` (the *direct-delay yield*).  The kernel services
  it through a per-process recycled :class:`Timeout` -- same scheduling
  order, same trace records, zero allocation.

Example
-------
>>> from repro.sim import Simulator
>>> sim = Simulator()
>>> def hello(sim):
...     yield sim.timeout(10)
...     return sim.now
>>> proc = sim.process(hello(sim))
>>> sim.run()
>>> sim.now
10
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable, Generator, Iterable
from sys import getrefcount
from time import perf_counter
from typing import TYPE_CHECKING, Any

from repro.sim.errors import (
    EmptySchedule,
    Interrupt,
    RunawaySimulation,
    SimulationError,
    StopSimulation,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.tracing import TraceSink

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "Event",
    "PENDING",
    "Process",
    "Simulator",
    "Timeout",
]


class _Pending:
    """Sentinel for the value of an event that has not been triggered."""

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "<PENDING>"


#: Unique sentinel object marking an untriggered event's value.
PENDING = _Pending()

#: Priority for urgent (kernel-internal) events.
URGENT = 0
#: Priority for normal events.
NORMAL = 1

#: Maximum number of recycled :class:`Timeout` objects kept per simulator.
_POOL_LIMIT = 256

#: Base of the end-of-tick eid band used by :meth:`Simulator.schedule_at_tail`.
#: Normal eids stay below ``1 << 128`` (the sequential counter trivially;
#: perturbed eids by construction), so tail entries lose every same-key
#: tie deterministically, in both normal and perturbed modes.
_TAIL_EID_BASE = 1 << 128

#: Base of the *observe* sub-band: tail entries that only read settled
#: state.  It sits above the commit band so every end-of-tick commit
#: (arbitration grants, fault resolutions) -- including commits that
#: cascade into fresh same-instant normal events -- runs before any
#: observer, keeping observations pure and order-independent.
_TAIL_OBSERVE_EID_BASE = 1 << 129


def _perturbed_eids(seed: int) -> Callable[[], int]:
    """Seeded eid source for the tie-break perturbation sanitizer.

    Returns a drop-in replacement for the sequential eid counter that
    emits ``(splitmix64(seed, n) << 64) | n``: unique, deterministic for
    a given *seed*, and *scrambled* -- so same-``(time, priority)`` heap
    entries pop in a seed-dependent permutation instead of insertion
    order.  Entries with distinct keys are untouched (the eid only
    breaks exact key ties), which is what makes result divergence under
    different seeds a confirmed order-dependence hazard rather than a
    timing artefact.  See ``repro.analyze.race``.
    """
    mask = (1 << 64) - 1
    state = seed & mask
    counter = 0

    def next_eid() -> int:
        nonlocal state, counter
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        z ^= z >> 31
        counter += 1
        return (z << 64) | counter

    return next_eid

#: A single event callback.
_Callback = Callable[["Event"], None]


class _NoWaiters:
    """Sentinel marking a live event that nobody has subscribed to.

    It is typed as a callback so ``Event.callbacks`` can hold it, but it
    must never actually be invoked: the run loops test for it by
    identity before dispatching.
    """

    __slots__ = ()

    def __call__(self, event: "Event") -> None:  # pragma: no cover - guard
        raise AssertionError("_NO_WAITERS must never be invoked")

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "<NO_WAITERS>"


_NO_WAITERS = _NoWaiters()

#: Hoisted heap primitive: ``heapq.heappush`` is called once per
#: scheduled event, so the module-global binding saves an attribute
#: lookup on every push.
_heappush = heapq.heappush


class Event:
    """An event that may happen at some point in simulated time.

    An event moves through three states:

    * *pending* -- not yet triggered; ``triggered`` is ``False``;
    * *triggered* -- scheduled to be processed; has a value;
    * *processed* -- callbacks have run; ``processed`` is ``True``.

    Processes wait for an event by ``yield``-ing it.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        #: Waiters invoked (with this event) when the event is
        #: processed.  A variant field: ``None`` once processed,
        #: :data:`_NO_WAITERS` while nobody waits, a bare callable for a
        #: single waiter, a list for two or more.
        self.callbacks: _Callback | list[_Callback] | None = _NO_WAITERS
        self._value: object = PENDING
        self._ok = True
        self._defused = False

    @property
    def triggered(self) -> bool:
        """``True`` once the event has been scheduled for processing."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """``True`` once the callbacks have been invoked."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """``True`` if the event succeeded (value is not an exception)."""
        return self._ok

    @property
    def value(self) -> object:
        """The value of the event, if it has been triggered."""
        if self._value is PENDING:
            raise SimulationError("value of untriggered event is not available")
        return self._value

    def _subscribe(self, callback: _Callback) -> None:
        """Add a waiter, upgrading the variant representation as needed."""
        cbs = self.callbacks
        if cbs is _NO_WAITERS:
            self.callbacks = callback
        elif type(cbs) is list:
            cbs.append(callback)
        elif cbs is None:
            raise SimulationError("cannot subscribe to a processed event")
        else:
            self.callbacks = [cbs, callback]

    def _unsubscribe(self, callback: _Callback) -> None:
        """Remove a waiter if present (processed events are left alone)."""
        cbs = self.callbacks
        if cbs is callback:
            self.callbacks = _NO_WAITERS
        elif type(cbs) is list:
            try:
                cbs.remove(callback)
            except ValueError:
                pass

    def succeed(self, value: object = None) -> "Event":
        """Trigger the event successfully with an optional *value*."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.sim.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with *exception* as its value.

        A failed event re-raises the exception inside every process
        waiting on it.  If no process waits on it, the simulator raises
        the exception when the event is processed (unless :meth:`defused`).
        """
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.sim.schedule(self)
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled so it will not crash the run."""
        self._defused = True

    def __and__(self, other: "Event") -> "Condition":
        return Condition(self.sim, Condition.all_events, [self, other])

    def __or__(self, other: "Event") -> "Condition":
        return Condition(self.sim, Condition.any_events, [self, other])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self.processed else ("triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers after a fixed *delay*."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: int, value: object = None) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        super().__init__(sim)
        self.delay = delay
        self._ok = True
        self._value = value
        sim.schedule(self, delay=delay)


class Initialize(Event):
    """Internal event that starts a new process."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", process: "Process") -> None:
        super().__init__(sim)
        self.callbacks = process
        self._ok = True
        self._value = None
        sim.schedule(self, priority=URGENT)


class Process(Event):
    """A simulation process wrapping a generator.

    The process itself is an event that triggers when the generator
    terminates; its value is the generator's return value.  Other
    processes can therefore wait for a process to finish by yielding it.
    """

    __slots__ = ("_generator", "_send", "_target", "name")

    def __init__(self, sim: "Simulator", generator: Generator, name: str | None = None) -> None:
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(sim)
        self._generator = generator
        #: Cached ``generator.send`` (one send per resume, so the bound
        #: method is worth caching).
        self._send: Callable[[object], Any] = generator.send
        self.name = name or getattr(generator, "__name__", "process")
        #: The event this process currently waits for (``None`` if active
        #: or terminated).
        self._target: Event | None = Initialize(sim, self)
        if sim._sink is not None:
            sim._sink.on_process_started(self)

    @property
    def target(self) -> Event | None:
        """The event this process is currently waiting for."""
        return self._target

    @property
    def is_alive(self) -> bool:
        """``True`` until the wrapped generator terminates."""
        return self._value is PENDING

    def interrupt(self, cause: object = None) -> None:
        """Interrupt this process, raising :class:`Interrupt` inside it."""
        if self._value is not PENDING:
            raise SimulationError(f"{self.name} has terminated and cannot be interrupted")
        if self is self.sim.active_process:
            raise SimulationError("a process is not allowed to interrupt itself")
        event = Event(self.sim)
        event._ok = False
        event._defused = True
        event._value = Interrupt(cause)
        event.callbacks = self
        self.sim.schedule(event, priority=URGENT)
        # Unsubscribe from the event the process was waiting on (an
        # abandoned direct-delay carrier simply drains as a no-waiter
        # pop and returns to the pool).
        target = self._target
        if target is not None:
            target._unsubscribe(self)

    def _terminate(self, ok: bool, value: object) -> None:
        """Record generator termination and trigger this process event."""
        self._target = None
        self._ok = ok
        self._value = value
        sim = self.sim
        sim.schedule(self)
        if sim._sink is not None:
            sim._sink.on_process_ended(self)

    def _continue(self, next_event: Event) -> None:
        """Wait on *next_event* (the non-delay tail of an inlined resume).

        An already-processed event resumes the generator again instead
        of going back through the event queue.
        """
        cbs = next_event.callbacks
        if cbs is _NO_WAITERS:
            # First (and usually only) waiter: no list allocation.
            next_event.callbacks = self
        elif cbs is None:
            if not next_event._ok and not next_event._defused:
                # Waiting on an already-failed, undefused event.
                next_event._defused = True
            self._resume(next_event)
            return
        elif type(cbs) is list:
            cbs.append(self)
        else:
            next_event.callbacks = [cbs, self]
        self._target = next_event

    def _resume(self, event: Event) -> None:
        """Advance the generator with the value of *event*.

        This is the generic resume used by the checked run loop, list
        dispatch and failure delivery; the sink-free run loop inlines the
        dominant single-waiter success case (see ``_run_fast``).
        """
        sim = self.sim
        sim._active_process = self
        while True:
            try:
                if event._ok:
                    next_event = self._send(event._value)
                else:
                    # The event failed; re-raise inside the process.
                    event._defused = True
                    exc = event._value
                    next_event = self._generator.throw(type(exc), exc, exc.__traceback__)
            except StopIteration as stop:
                # Process terminated normally.
                self._terminate(True, stop.value)
                break
            except BaseException as exc2:
                # Process crashed.
                self._terminate(False, exc2)
                break

            if type(next_event) is int:
                # Direct-delay yield: ``yield n`` means
                # ``yield sim.timeout(n)``, serviced through the
                # simulator's timeout pool (the sink-free run loop
                # re-arms the popped carrier in place instead).
                # Scheduling order and trace records are identical to
                # ``timeout(n)``.
                delay = next_event
                if delay < 0:
                    self._terminate(False, ValueError(f"negative delay {delay}"))
                    break
                pool = sim._timeout_pool
                if pool:
                    tick = pool.pop()
                    tick._value = None
                    sim.timeouts_reused += 1
                else:
                    tick = Timeout.__new__(Timeout)
                    tick.sim = sim
                    tick._value = None
                    tick._ok = True
                    tick._defused = False
                    sim.timeouts_created += 1
                tick.delay = delay
                tick.callbacks = self
                self._target = tick
                when = sim._now + delay
                _heappush(sim._queue, ((when << 1) | 1, sim._eid_next(), tick))
                hook = sim._sched_hook
                if hook is not None:
                    hook(tick, when, self)
                break

            cbs = next_event.callbacks
            if cbs is _NO_WAITERS:
                # First (and usually only) waiter: no list allocation.
                next_event.callbacks = self
            elif cbs is None:
                # The event was already processed: continue immediately
                # with its value (do not go back through the event queue).
                event = next_event
                if not event._ok and not event._defused:
                    # Waiting on an already-failed, undefused event.
                    event._defused = True
                continue
            elif type(cbs) is list:
                cbs.append(self)
            else:
                next_event.callbacks = [cbs, self]
            self._target = next_event
            break
        sim._active_process = None

    def __call__(self, event: Event) -> None:
        """Processes subscribe *themselves* as event callbacks.

        Storing the process (rather than a bound method) in
        ``Event.callbacks`` lets the run loops recognise the
        process-resume case by a single ``type()`` check and inline it;
        generic dispatch sites simply call the process like any other
        callback.
        """
        self._resume(event)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.name} {'alive' if self.is_alive else 'dead'}>"


class Condition(Event):
    """An event that triggers when a condition over child events holds.

    Use :class:`AllOf` / :class:`AnyOf` (or the ``&`` / ``|`` operators
    on events) rather than instantiating this class directly.  The value
    of a condition is a dict mapping each *triggered* child event to its
    value.
    """

    __slots__ = ("_evaluate", "_events", "_count", "_check_cb")

    def __init__(
        self,
        sim: "Simulator",
        evaluate: Callable[[list[Event], int], bool],
        events: Iterable[Event],
    ) -> None:
        super().__init__(sim)
        self._evaluate = evaluate
        events_list = list(events)
        self._events = events_list
        self._count = 0
        check: _Callback = self._check
        self._check_cb = check

        for event in events_list:
            if event.sim is not sim:
                raise SimulationError("events belong to different simulators")

        # Check already-processed events first, then subscribe to the
        # rest (the variant subscription is inlined: this path runs once
        # per child of every any-of/all-of wait).
        no_waiters = _NO_WAITERS
        for event in events_list:
            cbs = event.callbacks
            if cbs is no_waiters:
                event.callbacks = check
            elif cbs is None:
                self._check(event)
            elif type(cbs) is list:
                cbs.append(check)
            else:
                event.callbacks = [cbs, check]

        if not events_list and self._value is PENDING:
            self.succeed({})

    @staticmethod
    def all_events(events: list[Event], count: int) -> bool:
        """Condition for :class:`AllOf`: every child has triggered."""
        return len(events) == count

    @staticmethod
    def any_events(events: list[Event], count: int) -> bool:
        """Condition for :class:`AnyOf`: at least one child triggered."""
        return count > 0 or not events

    def _collect_values(self) -> dict[Event, object]:
        return {event: event._value for event in self._events if event.callbacks is None}

    def _detach(self) -> None:
        """Lazily cancel the waits on still-pending child events.

        Once the condition has triggered, the remaining children no
        longer need to call back: unsubscribing here turns abandoned
        events (e.g. the loser of an ``any_of`` race) into no-waiter
        events the run loop can skip and recycle.
        """
        check = self._check_cb
        for event in self._events:
            if event.callbacks is not None:
                event._unsubscribe(check)

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            return
        self._count += 1
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            self._detach()
        elif self._evaluate(self._events, self._count):
            # Inline of ``succeed()``: the PENDING guard above already
            # ensures single-trigger, and ``_ok`` starts out True.
            self._value = self._collect_values()
            self.sim.schedule(self)
            self._detach()


class AllOf(Condition):
    """Event that triggers once *all* of *events* have triggered."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim, Condition.all_events, events)


class AnyOf(Condition):
    """Event that triggers once *any* of *events* has triggered."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim, Condition.any_events, events)


class Simulator:
    """The discrete-event simulator: clock plus event queue.

    Parameters
    ----------
    initial_time:
        Starting value of the simulated clock (integer nanoseconds).
    trace_sink:
        Optional kernel observer (see :mod:`repro.obs.tracing`).  With
        no sink registered the event loop performs a single ``is None``
        check per occurrence and dispatches nothing.  With a sink
        registered, only the hooks the sink actually overrides are
        dispatched (see :meth:`repro.obs.tracing.TraceSink.overrides`).

    Attributes
    ----------
    timeouts_created / timeouts_reused / ticks_rearmed:
        Fast-path counters: how many :class:`Timeout` objects were
        allocated, how many were recycled through the free-list pool,
        and how many direct-delay yields re-armed the just-popped
        carrier without touching the pool at all.
    """

    __slots__ = (
        "_now",
        "_queue",
        "_eid_next",
        "_tail_seq",
        "_active_process",
        "_timeout_pool",
        "timeouts_created",
        "timeouts_reused",
        "ticks_rearmed",
        "_sink",
        "_sched_hook",
        "_sink_cb",
        "_sink_tie",
        "_sink_processed",
    )

    def __init__(
        self, initial_time: int = 0, trace_sink: "TraceSink | None" = None
    ) -> None:
        self._now = int(initial_time)
        #: Heap of ``((when << 1) | priority, eid, event)`` entries.
        self._queue: list[tuple[int, int, Event]] = []
        self._eid_next = itertools.count().__next__
        self._tail_seq = 0
        self._active_process: Process | None = None
        self._timeout_pool: list[Timeout] = []
        self.timeouts_created = 0
        self.timeouts_reused = 0
        self.ticks_rearmed = 0
        self._sink: "TraceSink | None" = None
        self._sched_hook: Callable[[Event, int, Process | None], None] | None = None
        self._sink_cb = False
        self._sink_tie = False
        self._sink_processed = False
        self.set_trace_sink(trace_sink)

    @property
    def now(self) -> int:
        """Current simulated time (nanoseconds)."""
        return self._now

    @property
    def trace_sink(self) -> "TraceSink | None":
        """The registered kernel observer, if any."""
        return self._sink

    def set_trace_sink(self, sink: "TraceSink | None") -> None:
        """Register (or, with ``None``, remove) the kernel observer.

        Per-hook dispatch flags are computed here, once, so the run
        loops skip hooks the sink inherits unchanged from the no-op
        :class:`~repro.obs.tracing.TraceSink` base.  Sinks that do not
        expose :meth:`~repro.obs.tracing.TraceSink.overrides` get full
        dispatch.
        """
        self._sink = sink
        if sink is None:
            self._sched_hook = None
            self._sink_cb = self._sink_tie = self._sink_processed = False
            return
        overrides = getattr(sink, "overrides", None)
        if overrides is None:
            self._sched_hook = sink.on_event_scheduled
            self._sink_cb = self._sink_tie = self._sink_processed = True
            return
        self._sched_hook = sink.on_event_scheduled if overrides("on_event_scheduled") else None
        self._sink_cb = bool(overrides("on_callback"))
        self._sink_tie = bool(overrides("on_tie_break"))
        self._sink_processed = bool(overrides("on_event_processed"))

    @property
    def active_process(self) -> Process | None:
        """The process currently being resumed, if any."""
        return self._active_process

    # -- event construction helpers ------------------------------------

    def event(self) -> Event:
        """Create a new, untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: int, value: object = None) -> Timeout:
        """Create a :class:`Timeout` triggering ``delay`` ns from now.

        Hot path: recycles a pooled :class:`Timeout` when one is
        available and schedules it inline (equivalent to constructing a
        fresh ``Timeout``, which remains supported).
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        pool = self._timeout_pool
        if pool:
            event = pool.pop()
            # Pooled timeouts are always ``_ok`` and never observably
            # defused (a Timeout can never fail), so only the variant
            # field, value and delay need resetting.
            event.callbacks = _NO_WAITERS
            event._value = value
            event.delay = delay
            self.timeouts_reused += 1
        else:
            event = Timeout.__new__(Timeout)
            event.sim = self
            event.callbacks = _NO_WAITERS
            event._value = value
            event._ok = True
            event._defused = False
            event.delay = delay
            self.timeouts_created += 1
        when = self._now + delay
        _heappush(self._queue, ((when << 1) | NORMAL, self._eid_next(), event))
        hook = self._sched_hook
        if hook is not None:
            hook(event, when, self._active_process)
        return event

    def process(self, generator: Generator, name: str | None = None) -> Process:
        """Start a new :class:`Process` running *generator*."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event triggering when all *events* have triggered."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event triggering when any of *events* has triggered."""
        return AnyOf(self, events)

    # -- scheduling and execution ---------------------------------------

    def schedule(self, event: Event, priority: int = NORMAL, delay: int = 0) -> None:
        """Schedule *event* for processing ``delay`` ns from now."""
        if delay < 0:
            raise SimulationError("event scheduled in the past")
        when = self._now + delay
        _heappush(self._queue, ((when << 1) | priority, self._eid_next(), event))
        hook = self._sched_hook
        if hook is not None:
            hook(event, when, self._active_process)

    def schedule_at_tail(self, event: Event, observe: bool = False) -> None:
        """Schedule *event* at the current time, after every other event
        of this timestep.

        Tail entries draw their eid from a dedicated band above every
        normal eid, so they lose all same-``(time, priority)`` ties --
        deterministically, whether or not the tie-break perturbation of
        :meth:`perturb_tie_breaks` is active.  This is the end-of-tick
        slot :class:`repro.sim.resources.ArbitratedResource` uses to see
        *all* requests issued in a timestep before deciding a grant.

        Multiple tail events of one timestep run in scheduling order.
        *event* must already carry its value (like a triggered event);
        use the ``Initialize`` pattern: set ``_ok``/``_value`` and the
        callback before calling.

        With ``observe=True`` the event lands in the *observe* sub-band
        instead: it runs after every commit-band tail event of the
        timestep, even ones scheduled later (or cascading out of earlier
        commits), so it sees fully settled state.  Observe-band waiters
        must not mutate model state another observer could read.
        """
        self._tail_seq += 1
        base = _TAIL_OBSERVE_EID_BASE if observe else _TAIL_EID_BASE
        _heappush(
            self._queue, ((self._now << 1) | NORMAL, base + self._tail_seq, event)
        )
        hook = self._sched_hook
        if hook is not None:
            hook(event, self._now, self._active_process)

    def tail_event(self, observe: bool = True) -> Event:
        """A pre-triggered event delivered at the end of the current tick.

        A process that yields it resumes once the timestep has settled
        -- after every same-instant normal event and (for the default
        observe band) every end-of-tick commit -- making whatever it
        reads next independent of same-instant event order.  This is the
        seam :meth:`repro.hardware.machine.CedarMachine.memory_burst`
        uses to price a burst against the full simultaneous cohort.
        """
        event = Event(self)
        event._ok = True
        event._value = None
        self.schedule_at_tail(event, observe=observe)
        return event

    def call_at_tail(self, callback: Callable[[Event], None]) -> Event:
        """Run *callback* at the end of the current timestep.

        Convenience wrapper over :meth:`schedule_at_tail`: builds the
        pre-triggered carrier event and subscribes *callback* as its
        sole waiter.  Used for state transitions that must observe
        every same-instant occurrence before committing (deterministic
        arbitration, fault-resolution boundaries).
        """
        event = Event(self)
        event._ok = True
        event._value = None
        event.callbacks = callback
        self.schedule_at_tail(event)
        return event

    def perturb_tie_breaks(self, seed: int) -> None:
        """Arm the tie-break perturbation mode with a seeded eid source.

        Replaces the sequential eid counter with the seeded scrambler of
        :func:`_perturbed_eids`: events scheduled for the same
        ``(time, priority)`` pop in a seed-dependent permutation instead
        of insertion order, while every cross-key ordering is untouched.
        A model free of order-dependence hazards produces byte-identical
        results under every seed; any divergence is a confirmed hazard
        (see ``repro.analyze.race``).

        Must be armed before the first event is scheduled: mixing
        counter eids with perturbed eids would pin pre-existing events
        to the front of every tie and weaken the permutation.
        """
        if self._queue:
            raise SimulationError(
                "perturb_tie_breaks() must be armed before any event is scheduled"
            )
        self._eid_next = _perturbed_eids(seed)

    def peek(self) -> int | float:
        """Time of the next scheduled event (``inf`` if none)."""
        if not self._queue:
            return float("inf")
        return self._queue[0][0] >> 1

    def run(
        self,
        until: Event | int | None = None,
        max_events: int | None = None,
        max_sim_time: int | None = None,
    ) -> object:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None``  -- run until no events remain;
            an ``int`` -- run until the clock reaches that time;
            an :class:`Event` -- run until that event is processed, and
            return its value.
        max_events:
            Watchdog: raise :class:`RunawaySimulation` once this many
            events have been processed by this call.
        max_sim_time:
            Watchdog: raise :class:`RunawaySimulation` once the next
            event lies beyond this simulated time (nanoseconds).

        With neither watchdog set and no sink installed the event loop
        runs on the lean :meth:`_run_fast` path; anything else runs the
        checked loop.
        """
        if max_events is not None and max_events <= 0:
            raise ValueError(f"max_events must be positive, got {max_events}")
        if max_sim_time is not None and max_sim_time < self._now:
            raise ValueError(
                f"max_sim_time ({max_sim_time}) must be >= now ({self._now})"
            )
        stop_event: Event | None = None
        if until is not None:
            if isinstance(until, Event):
                stop_event = until
                if stop_event.callbacks is None:
                    return stop_event._value
                stop_event._subscribe(self._stop_callback)
            else:
                at = int(until)
                if at <= self._now:
                    raise ValueError(f"until ({at}) must be greater than now ({self._now})")
                stop_event = Event(self)
                stop_event._ok = True
                stop_event._value = None
                stop_event.callbacks = self._stop_callback
                self.schedule(stop_event, priority=URGENT, delay=at - self._now)

        try:
            if max_events is None and max_sim_time is None and self._sink is None:
                self._run_fast()
            else:
                self._run_checked(max_events, max_sim_time)
        except StopSimulation as stop:
            return stop.value
        except EmptySchedule:
            if stop_event is not None and isinstance(until, Event):
                if stop_event.callbacks is not None:
                    raise SimulationError(
                        "no more events scheduled but the until-event has not triggered"
                    ) from None
            return None

    def _run_fast(self) -> None:
        """Leanest event loop: no trace sink, no watchdogs.

        Attribute lookups are hoisted out of the loop, the per-event
        try/except costs nothing on the happy path (CPython 3.11+
        zero-cost exceptions), and the dominant dispatch -- a single
        waiting process resumed by a successful event -- is inlined so
        no callback frame is created.  When the resumed process yields
        a direct delay (``yield n``) the just-popped carrier event is
        re-armed and pushed again: the steady state of a timeout-driven
        process runs pop -> send -> push with zero allocation.

        If the heap is empty after the re-arm, the carrier is the next
        event anyway, so the loop skips the push and the pop: it
        advances the clock and resumes the same process again, with the
        carrier standing in as the popped event.  This is observably
        identical to the heap route -- processing order cannot change
        with one pending event, and eids (which only break heap ties)
        are drawn only when the carrier finally goes back into the heap.
        """
        queue = self._queue
        pool = self._timeout_pool
        pop = heapq.heappop
        push = _heappush
        eid_next = self._eid_next
        no_waiters = _NO_WAITERS
        timeout_type = Timeout
        process_type = Process
        refcount = getrefcount
        rearmed = reused = created = 0
        try:
            while True:
                try:
                    key, _eid, event = pop(queue)
                except IndexError:
                    raise EmptySchedule("no more events scheduled") from None
                now = key >> 1
                self._now = now
                cbs = event.callbacks
                event.callbacks = None
                if type(cbs) is process_type and event._ok:
                    # Hot path: resume the single waiting process inline.
                    self._active_process = cbs
                    send = cbs._send
                    value = event._value
                    while True:
                        try:
                            nxt = send(value)
                        except StopIteration as stop:
                            cbs._terminate(True, stop.value)
                            break
                        except BaseException as exc:
                            cbs._terminate(False, exc)
                            break
                        if type(nxt) is not int:
                            cbs._continue(nxt)
                            break
                        if nxt < 0:
                            cbs._terminate(False, ValueError(f"negative delay {nxt}"))
                            break
                        # Direct-delay yield: re-arm the popped carrier in
                        # place when only the loop and the process target
                        # still reference it (getrefcount argument +
                        # `event` + `cbs._target` == 3).
                        if type(event) is timeout_type and refcount(event) == 3:
                            rearmed += 1
                        else:
                            if pool:
                                event = pool.pop()
                                reused += 1
                            else:
                                event = Timeout.__new__(Timeout)
                                event.sim = self
                                event._ok = True
                                event._defused = False
                                created += 1
                            cbs._target = event
                        event._value = None
                        event.delay = nxt
                        now += nxt
                        if queue:
                            event.callbacks = cbs
                            push(queue, ((now << 1) | 1, eid_next(), event))
                            break
                        # Sole pending event: resume again, no heap traffic.
                        self._now = now
                        value = None
                    self._active_process = None
                elif type(cbs) is list:
                    for callback in cbs:
                        callback(event)
                elif cbs is not no_waiters and cbs is not None:
                    cbs(event)
                if type(event) is timeout_type:
                    # A Timeout can never fail; recycle it when the loop
                    # holds the only remaining reference (local binding +
                    # getrefcount argument == 2).  A carrier just pushed
                    # back is also held by the heap and the process.
                    if refcount(event) == 2 and len(pool) < _POOL_LIMIT:
                        pool.append(event)
                elif not event._ok and not event._defused:
                    # An unhandled failure: crash the simulation.
                    exc2 = event._value
                    raise exc2
        finally:
            self.ticks_rearmed += rearmed
            self.timeouts_reused += reused
            self.timeouts_created += created

    def _run_checked(self, max_events: int | None, max_sim_time: int | None) -> None:
        """Checked event loop: trace sink hooks and runaway limits.

        Serves every run with a trace sink or a watchdog, so
        :meth:`_run_fast` pays for neither.  Every callback, a resumed
        process included, is dispatched generically (a process resumes
        through :meth:`Process._resume`).  Sink hooks honour the
        per-hook flags computed by :meth:`set_trace_sink`; in particular
        the two ``perf_counter()`` reads per callback are only paid when
        the sink overrides ``on_callback``.  A limit left at ``None``
        never trips.  The queue head is peeked before each event so the
        raised :class:`RunawaySimulation` can carry the last event the
        kernel actually processed.
        """
        queue = self._queue
        pool = self._timeout_pool
        pop = heapq.heappop
        sink: Any = self._sink
        want_cb = self._sink_cb
        want_tie = self._sink_tie
        want_processed = self._sink_processed
        no_waiters = _NO_WAITERS
        timeout_type = Timeout
        process_type = Process
        refcount = getrefcount
        limit = -1 if max_events is None else max_events
        processed = 0
        last_event: Event | None = None
        while True:
            if processed == limit:
                raise RunawaySimulation(
                    limit=f"max_events={max_events}",
                    events_processed=processed,
                    sim_time_ns=self._now,
                    last_event=last_event,
                )
            if not queue:
                raise EmptySchedule("no more events scheduled")
            if max_sim_time is not None and queue[0][0] >> 1 > max_sim_time:
                raise RunawaySimulation(
                    limit=f"max_sim_time={max_sim_time}",
                    events_processed=processed,
                    sim_time_ns=self._now,
                    last_event=last_event,
                )
            key, _eid, event = pop(queue)
            last_event = event
            when = key >> 1
            if want_tie and queue and queue[0][0] == key:
                sink.on_tie_break(when, key & 1, event, queue[0][2])
            self._now = when
            cbs = event.callbacks
            event.callbacks = None
            if type(cbs) is list:
                if want_cb:
                    for callback in cbs:
                        if type(callback) is process_type:
                            owner: Process | None = callback
                        else:
                            bound = getattr(callback, "__self__", None)
                            owner = bound if isinstance(bound, Process) else None
                        begin = perf_counter()
                        callback(event)
                        sink.on_callback(event, owner, perf_counter() - begin)
                else:
                    for callback in cbs:
                        callback(event)
            elif cbs is not no_waiters and cbs is not None:
                if want_cb:
                    if type(cbs) is process_type:
                        owner = cbs
                    else:
                        bound = getattr(cbs, "__self__", None)
                        owner = bound if isinstance(bound, Process) else None
                    begin = perf_counter()
                    cbs(event)
                    sink.on_callback(event, owner, perf_counter() - begin)
                else:
                    cbs(event)
            if want_processed:
                sink.on_event_processed(event, when)
            if type(event) is timeout_type:
                # ``last_event`` still aliases ``event``: recycle at
                # refcount 3 (getrefcount argument + both locals).
                if refcount(event) == 3 and len(pool) < _POOL_LIMIT:
                    pool.append(event)
            elif not event._ok and not event._defused:
                exc = event._value
                raise exc
            processed += 1

    @staticmethod
    def _stop_callback(event: Event) -> None:
        if not event._ok:
            # The until-event failed (e.g. the main process crashed):
            # propagate the failure out of run() instead of returning
            # the exception object as if it were the event's value.
            event._defused = True
            value = event._value
            if isinstance(value, BaseException):
                raise value
        raise StopSimulation(event._value)


def compiled_loop_active() -> bool:
    """Always ``False``: the kernel has no compiled event loop.

    Kept only because ``bench/run.py`` (``host_info``) imports it.
    """
    return False
