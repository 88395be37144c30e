"""Analytic fast paths for the runtime-library protocol.

The runtime's hot protocol steps -- SDOALL/XDOALL self-scheduling
pickups and the spread-loop finish-barrier detach -- all follow one
shape on the exact path: request an :class:`repro.sim.ArbitratedResource`,
be granted at the end-of-tick arbitration, hold the lock for a priced
service time, release.  Each occurrence costs a request event, a grant
event, a hold carrier and an arbitration callback.

:class:`LeanLock` collapses that to its closed form.  The grant instant
and hold price of every waiter are fully determined at arbitration
time:

* grants are FIFO by ``(arrival tick, key)`` -- exactly the
  ``ArbitratedResource`` order;
* the hold price is a function of machine state that is constant within
  the grant tick (``CedarMachine.global_round_trip_ns`` prices at the
  load tracker's *settled* view, same value anywhere in the tick) and
  of the post-grant queue length, which cannot change between the
  arbitration and the holder's resume (the grant commit runs in the
  end-of-tick band; the holder's resume is the next normal event).

So the lock schedules the waiter's completion **once**, at
``grant + hold``, and re-arbitrates when the hold elapses: one event
per handoff instead of three, with identical grant order, identical
hold prices and identical completion times.  The Hypothesis suite in
``tests/runtime/test_fastpath_equivalence.py`` pins the equivalence.

:class:`RuntimeFastPath` is the arming seam: the lean paths (and the
spawn-fusion sites in :mod:`repro.runtime.library`) run whenever the
environment allows them (:mod:`repro.sim.policy`), decided once when
the stack is built.  Trace sinks and tie-break perturbation leave it
armed, so a sanitizer or profiler observes the program a default run
executes.  Fault campaigns leave it armed too: every fault kind acts on
state the lean and exact paths read at the same instants
(``tests/integration/test_fastpath_faults.py`` pins that).  Shape
fallbacks are counted so run reports show which paths served a run.
"""

from __future__ import annotations

from collections.abc import Callable, Generator
from dataclasses import dataclass

from repro.sim import Event, Simulator
from repro.sim.core import _NO_WAITERS
from repro.sim.policy import fastpath_policy

__all__ = ["LeanLock", "RuntimeFastPath", "RuntimeFastPathStats"]


@dataclass
class RuntimeFastPathStats:
    """Lean/exact split of the runtime protocol (``runtime.fastpath.*``
    metrics namespace)."""

    lean_pickups: int = 0
    exact_pickups: int = 0
    lean_barrier_detaches: int = 0
    exact_barrier_detaches: int = 0
    #: Child generators inlined (``yield from``) instead of spawned as
    #: processes: memory bursts, execute slices, page-touch sweeps.
    fused_spawns: int = 0
    #: Operations routed exact because a deadline or a combining-tree
    #: barrier was configured (shapes the lean path does not model).
    fallback_shape: int = 0

    @property
    def lean_fraction(self) -> float:
        """Fraction of pickups+detaches served by the lean path."""
        lean = self.lean_pickups + self.lean_barrier_detaches
        total = lean + self.exact_pickups + self.exact_barrier_detaches
        if total == 0:
            return 0.0
        return lean / total


class LeanLock:
    """Closed-form FIFO lock replicating ``ArbitratedResource(capacity=1)``
    plus a priced hold plus release, in one event per handoff.

    Waiters run :meth:`serve` (via ``yield from``).  Grants resolve at
    the end of the arrival tick in ``(arrival, key)`` order; the hold
    price is evaluated at grant time with the post-grant queue length
    (the value the exact path's holder reads after its grant); the
    waiter resumes once the hold has elapsed, with the lock already
    released and the next arbitration armed.
    """

    __slots__ = ("sim", "_waiting", "_busy", "_arb_armed", "grants")

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        #: Pending waiters: ``(arrival, key, price, done)`` tuples.
        self._waiting: list[tuple[int, int, Callable[[int], int], Event]] = []
        self._busy = False
        self._arb_armed = False
        self.grants = 0

    @property
    def queue_length(self) -> int:
        """Waiters not yet granted (parity with ``Resource.queue_length``)."""
        return len(self._waiting)

    def serve(self, key: int, price: Callable[[int], int]) -> Generator:
        """Process: acquire in ``(arrival, key)`` order, hold for
        ``price(queue_len_after_grant)`` ns, release.

        Returns the hold that was charged (the exact path's holder
        computes the same value after its grant).
        """
        sim = self.sim
        done = Event(sim)
        self._waiting.append((sim.now, key, price, done))
        if not self._arb_armed and not self._busy:
            self._arb_armed = True
            sim.call_at_tail(self._arbitrate)
        hold = yield done
        return hold

    def _arbitrate(self, _event: Event) -> None:
        """End-of-tick grant commit (same band as ``ArbitratedResource``)."""
        self._arb_armed = False
        if self._busy:
            return
        waiting = self._waiting
        if not waiting:
            return
        best = 0
        if len(waiting) > 1:
            best_order = waiting[0][:2]
            for i in range(1, len(waiting)):
                order = waiting[i][:2]
                if order < best_order:
                    best_order = order
                    best = i
        _arrival, _key, price, done = waiting.pop(best)
        # Post-grant queue length: between this commit and the holder's
        # resume no new request can be processed, so this is the value
        # the exact path's holder reads.
        hold = price(len(waiting))
        self._busy = True
        self.grants += 1
        done._ok = True
        done._value = hold
        waiter = done.callbacks
        if waiter is _NO_WAITERS:
            done.callbacks = self._release
        else:
            # Release runs before the waiter resumes, so a waiter that
            # re-requests immediately queues like a fresh arrival.
            done.callbacks = [self._release, waiter]
        # Single trigger: each waiter's done event is popped from
        # _waiting exactly once (here), and _ok was set just above, so
        # this is the only schedule of this event.
        self.sim.schedule(done, delay=hold)  # cdr: noqa[CDR004]

    def _release(self, _event: Event) -> None:
        """The hold elapsed: free the lock, re-arm arbitration."""
        self._busy = False
        if self._waiting and not self._arb_armed:
            self._arb_armed = True
            self.sim.call_at_tail(self._arbitrate)


class RuntimeFastPath:
    """Arming state + counters for the runtime-layer fast paths."""

    __slots__ = ("stats", "on")

    def __init__(self) -> None:
        self.stats = RuntimeFastPathStats()
        #: Whether the lean paths serve this run; fixed at construction.
        self.on = fastpath_policy()

    @property
    def mode(self) -> str:
        """``"batched"`` or ``"exact"``: which path serves new operations."""
        return "batched" if self.on else "exact"
