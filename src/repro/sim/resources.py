"""Shared-resource primitives for the simulation kernel.

Provides SimPy-style resources:

* :class:`Resource` -- capacity-limited FIFO resource (e.g. a lock with
  ``capacity=1``, a memory bank port, a bus).
* :class:`PriorityResource` -- like :class:`Resource` but requests carry
  a priority (lower value is served first).
* :class:`Store` -- a FIFO buffer of Python objects (e.g. a switch
  output queue in the network model).

All requests are events, so processes use them as::

    req = resource.request()
    yield req
    ...critical section...
    resource.release(req)

or with the context-manager style helper::

    with resource.request() as req:
        yield req
        ...
"""

from __future__ import annotations

from collections import deque
from collections.abc import Generator
from types import TracebackType

from repro.sim.core import Event, Simulator
from repro.sim.errors import SimulationError

__all__ = [
    "ArbitratedResource",
    "KeyedRequest",
    "PriorityRequest",
    "PriorityResource",
    "Request",
    "Resource",
    "Store",
]


class Request(Event):
    """A request for one slot of a :class:`Resource`.

    Triggers when the slot is granted.  Can be used as a context manager
    so the slot is automatically released when the ``with`` block exits.
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.sim)
        self.resource = resource

    def __enter__(self) -> "Request":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc_value: BaseException | None,
        traceback: TracebackType | None,
    ) -> None:
        self.cancel()

    def cancel(self) -> None:
        """Release the slot (or withdraw the request if still queued)."""
        self.resource.release(self)


class PriorityRequest(Request):
    """A :class:`Request` with a priority (lower value served first)."""

    __slots__ = ("priority", "order")

    def __init__(self, resource: "PriorityResource", priority: int) -> None:
        super().__init__(resource)
        self.priority = priority
        self.order = resource._order
        resource._order += 1

    def _sort_key(self) -> tuple[int, int]:
        return (self.priority, self.order)


class Resource:
    """Capacity-limited resource with FIFO queueing.

    Parameters
    ----------
    sim:
        Owning simulator.
    capacity:
        Number of slots that may be held simultaneously.
    """

    # Resources are instantiated per bank/port/lock -- hundreds per
    # machine -- and their attributes sit on the request/release hot
    # path, so the layout is fixed like the kernel classes'.
    __slots__ = ("sim", "_capacity", "_users", "_waiting")

    def __init__(self, sim: Simulator, capacity: int = 1) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.sim = sim
        self._capacity = capacity
        self._users: list[Request] = []
        self._waiting: deque[Request] = deque()

    @property
    def capacity(self) -> int:
        """Total number of slots."""
        return self._capacity

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiting)

    def request(self) -> Request:
        """Request one slot; the returned event triggers when granted."""
        req = Request(self)
        if len(self._users) < self._capacity:
            self._users.append(req)
            req.succeed()
        else:
            self._waiting.append(req)
        return req

    def release(self, request: Request) -> None:
        """Release a granted slot (or withdraw a queued request)."""
        try:
            self._users.remove(request)
        except ValueError:
            # Not a user: maybe still waiting.
            try:
                self._waiting.remove(request)
            except ValueError:
                pass
            return
        self._grant_next()

    def _grant_next(self) -> None:
        while self._waiting and len(self._users) < self._capacity:
            req = self._waiting.popleft()
            self._users.append(req)
            req.succeed()

    def acquire(self) -> Generator:
        """Process-style helper: ``yield from resource.acquire()``.

        Returns the granted request, which must later be passed to
        :meth:`release`.
        """
        req = self.request()
        yield req
        return req


class KeyedRequest(Request):
    """A :class:`Request` carrying a stable arbitration key."""

    __slots__ = ("key", "arrival")

    def __init__(self, resource: "ArbitratedResource", key: int) -> None:
        super().__init__(resource)
        self.key = key
        self.arrival = resource.sim.now


class ArbitratedResource(Resource):
    """A :class:`Resource` whose same-instant grants are tie-stable.

    A plain :class:`Resource` grants in *arrival order*: when several
    processes request in the same nanosecond, whoever's event happened
    to pop first wins.  That order is decided only by queue insertion --
    the DES analog of an unsynchronized data race -- so any model
    quantity downstream of the winner (e.g. which cluster picks which
    self-scheduled iteration) silently depends on the kernel's
    tie-breaker.  The tie-break perturbation sanitizer
    (``repro.analyze.race``) flags exactly this.

    This subclass instead *defers* every grant decision to the end of
    the current timestep (via :meth:`Simulator.schedule_at_tail`), by
    which point all same-instant requests are queued, and grants to the
    lowest ``(arrival, key)``: FIFO across distinct instants, stable
    caller-chosen key within an instant.  Grants still trigger within
    the same nanosecond, so simulated timing is unchanged; only the
    arbitrary component of same-instant ordering is removed.

    Callers must pass keys unique among simultaneous requesters (e.g.
    the requesting CE or task id); duplicate keys fall back to arrival
    order, which re-opens the hazard.
    """

    __slots__ = ("_arb_pending",)

    def __init__(self, sim: Simulator, capacity: int = 1) -> None:
        super().__init__(sim, capacity)
        self._arb_pending = False

    def request(self, key: int = 0) -> KeyedRequest:  # type: ignore[override]
        """Request one slot with arbitration *key* (lower wins a tie)."""
        req = KeyedRequest(self, key)
        self._waiting.append(req)
        self._schedule_arbitration()
        return req

    def release(self, request: Request) -> None:
        """Release a granted slot (or withdraw a queued request)."""
        try:
            self._users.remove(request)
        except ValueError:
            try:
                self._waiting.remove(request)
            except ValueError:
                pass
            return
        if self._waiting:
            self._schedule_arbitration()

    def _schedule_arbitration(self) -> None:
        if self._arb_pending or len(self._users) >= self._capacity:
            return
        self._arb_pending = True
        self.sim.call_at_tail(self._arbitrate)

    def _arbitrate(self, _event: Event) -> None:
        """End-of-tick grant pass (runs after all same-instant requests)."""
        self._arb_pending = False
        waiting: deque[KeyedRequest] = self._waiting  # type: ignore[assignment]
        while waiting and len(self._users) < self._capacity:
            # Arrivals are appended in time order, so every lowest-arrival
            # candidate sits in the prefix sharing waiting[0]'s arrival;
            # a strict ``<`` keeps the first of equal keys.
            best = waiting[0]
            arrival = best.arrival
            for req in waiting:
                if req.arrival != arrival:
                    break
                if req.key < best.key:
                    best = req
            waiting.remove(best)
            self._users.append(best)
            best.succeed()

    def _grant_next(self) -> None:  # pragma: no cover - defensive
        # Grants go through _arbitrate(); nothing must bypass it.
        raise SimulationError("ArbitratedResource grants only via arbitration")


class PriorityResource(Resource):
    """A :class:`Resource` whose queue is ordered by request priority."""

    __slots__ = ("_order",)

    def __init__(self, sim: Simulator, capacity: int = 1) -> None:
        super().__init__(sim, capacity)
        self._order = 0
        self._waiting: list[PriorityRequest] = []  # kept sorted

    def request(self, priority: int = 0) -> PriorityRequest:  # type: ignore[override]
        """Request a slot with *priority* (lower is served first)."""
        req = PriorityRequest(self, priority)
        if len(self._users) < self._capacity:
            self._users.append(req)
            req.succeed()
        else:
            self._insort(req)
        return req

    def _insort(self, req: PriorityRequest) -> None:
        key = req._sort_key()
        lo, hi = 0, len(self._waiting)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._waiting[mid]._sort_key() <= key:
                lo = mid + 1
            else:
                hi = mid
        self._waiting.insert(lo, req)

    def release(self, request: Request) -> None:
        try:
            self._users.remove(request)
        except ValueError:
            try:
                self._waiting.remove(request)  # type: ignore[arg-type]
            except ValueError:
                pass
            return
        self._grant_next()

    def _grant_next(self) -> None:
        while self._waiting and len(self._users) < self._capacity:
            req = self._waiting.pop(0)
            self._users.append(req)
            req.succeed()


class Store:
    """An unbounded (or bounded) FIFO buffer of Python objects.

    One :class:`Store` backs every switch output queue in the packet
    network, so the fixed layout matters at machine scale.
    """

    __slots__ = ("sim", "capacity", "_items", "_getters", "_putters")

    def __init__(self, sim: Simulator, capacity: int | float = float("inf")) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._items: deque[object] = deque()
        self._getters: deque[Event] = deque()
        self._putters: deque[tuple[Event, object]] = deque()

    @property
    def items(self) -> list[object]:
        """Snapshot of the buffered items (oldest first)."""
        return list(self._items)

    def put(self, item: object) -> Event:
        """Put *item* into the store; triggers when accepted."""
        event = Event(self.sim)
        if self._getters:
            getter = self._getters.popleft()
            getter.succeed(item)
            event.succeed()
        elif len(self._items) < self.capacity:
            self._items.append(item)
            event.succeed()
        else:
            self._putters.append((event, item))
        return event

    def get(self) -> Event:
        """Get the oldest item; the event's value is the item."""
        event = Event(self.sim)
        if self._items:
            item = self._items.popleft()
            event.succeed(item)
            self._admit_putters()
        elif self._putters:
            put_event, item = self._putters.popleft()
            put_event.succeed()
            event.succeed(item)
        else:
            self._getters.append(event)
        return event

    def _admit_putters(self) -> None:
        while self._putters and len(self._items) < self.capacity:
            put_event, item = self._putters.popleft()
            self._items.append(item)
            put_event.succeed()

    def __len__(self) -> int:
        return len(self._items)


class Gate:
    """A broadcast gate: processes wait until it is opened.

    Unlike an :class:`Event`, a gate can be reused: :meth:`open` releases
    every current waiter, :meth:`close` re-arms it.  Models the
    "post work / wait for work" handshake of the Cedar runtime.
    """

    __slots__ = ("sim", "_open", "_waiters")

    def __init__(self, sim: Simulator, open_: bool = False) -> None:
        self.sim = sim
        self._open = open_
        self._waiters: list[Event] = []

    @property
    def is_open(self) -> bool:
        """Whether the gate currently lets waiters through."""
        return self._open

    def wait(self) -> Event:
        """Event that triggers when the gate is (or becomes) open."""
        event = Event(self.sim)
        if self._open:
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def open(self, value: object = None) -> None:
        """Open the gate, releasing all waiters."""
        self._open = True
        waiters, self._waiters = self._waiters, []
        for event in waiters:
            event.succeed(value)

    def close(self) -> None:
        """Close the gate so new waiters block."""
        self._open = False


__all__.append("Gate")
