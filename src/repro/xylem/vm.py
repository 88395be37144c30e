"""Xylem virtual-memory model: demand paging with concurrent faults.

Xylem provides multitasking and virtual-memory management of the Cedar
memory system (Section 2).  The paper distinguishes *sequential* page
faults (one CE touches a not-yet-accessed page) from the more expensive
*concurrent* page faults (two or more CEs simultaneously attempt to
access the same new page, typical of parallel loops sweeping new data),
and observes that concurrent faults cost up to 3 % of completion time
(Section 5.1).

The model keeps a resident-page set per Xylem process address space.
The first toucher of a non-resident page services a fault; CEs that
touch the page while the fault is still in flight join it, and the
fault is then classified concurrent for every participant.

When a maximum resident-set size is configured (the machine's 64 MB
global memory holds 16K 4 KB pages), faulting a page in past the limit
evicts the least-recently-faulted page FIFO-style, charging a write-back
cost; re-touching an evicted page faults again, so thrashing emerges
under memory pressure (``tests/xylem/test_vm_replacement.py``).
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Generator, Iterable

from repro.sim.core import Event, Simulator
from repro.xylem.accounting import FaultStats, TimeAccounting
from repro.xylem.categories import OsActivity
from repro.xylem.params import XylemParams

__all__ = ["VirtualMemory", "FaultStats"]


class _InFlightFault:
    """Bookkeeping for a fault currently being serviced."""

    __slots__ = ("resolved", "participants", "primary_cluster")

    def __init__(self, resolved: Event, primary_cluster: int) -> None:
        self.resolved = resolved
        self.participants = 1
        self.primary_cluster = primary_cluster


class VirtualMemory:
    """Demand-paged address space shared by a Xylem process's tasks."""

    def __init__(
        self,
        sim: Simulator,
        accounting: TimeAccounting,
        params: XylemParams,
        critical_sections=None,
        cpi_handler=None,
        max_resident_pages: int | None = None,
    ) -> None:
        self.sim = sim
        self.accounting = accounting
        self.params = params
        self.critical_sections = critical_sections
        self.cpi_handler = cpi_handler
        if max_resident_pages is not None and max_resident_pages <= 0:
            raise ValueError(
                f"max_resident_pages must be positive, got {max_resident_pages}"
            )
        self.max_resident_pages = max_resident_pages
        self._resident: OrderedDict[int, None] = OrderedDict()
        self._in_flight: dict[int, _InFlightFault] = {}
        self.stats = FaultStats()

    def is_resident(self, page: int) -> bool:
        """Whether *page* has been faulted in."""
        return page in self._resident

    @property
    def resident_pages(self) -> int:
        """Number of resident pages."""
        return len(self._resident)

    def touch(self, cluster_id: int, page: int) -> Generator:
        """Process: one CE touches *page*, faulting it in if needed."""
        if page in self._resident:
            return
        params = self.params
        fault = self._in_flight.get(page)
        if fault is not None:
            # Joined an in-flight fault: the fault becomes concurrent;
            # the joiner pays trap-and-wait bookkeeping while the
            # primary's service continues.
            fault.participants += 1
            self.stats.joined += 1
            if fault.participants <= params.pgflt_join_charge_cap:
                join_ns = params.pgflt_join_cost_ns
            else:
                # Late joiners find the fault nearly resolved: a quick
                # trap and re-check, not a full wait bookkeeping.
                join_ns = params.pgflt_trap_light_ns
            self.accounting.charge(cluster_id, OsActivity.PGFLT_CONCURRENT, join_ns)
            yield fault.resolved
            return
        # First toucher: service the fault.
        fault = _InFlightFault(self.sim.event(), cluster_id)
        self._in_flight[page] = fault
        if self.critical_sections is not None:
            for _ in range(params.crsect_per_fault):
                yield from self.critical_sections.access_cluster(
                    cluster_id, params.crsect_cluster_cost_ns
                )
        yield params.pgflt_sequential_cost_ns
        # Classify and resolve at the end of the tick: a CE touching the
        # page in the same nanosecond the service completes would
        # otherwise race both the participant count and the residency
        # transition -- event-queue insertion order deciding between
        # "join the fault" and "page already resident" (an order-
        # dependence hazard, see repro.analyze.race).  Deferring the
        # commit makes every same-instant toucher a joiner.
        self.sim.call_at_tail(lambda _event: self._classify(cluster_id, page, fault))
        # The faulting CE stays trapped until the commit (which a
        # concurrent fault's CPI gather may extend).
        yield fault.resolved

    def _classify(self, cluster_id: int, page: int, fault: _InFlightFault) -> None:
        """Commit a serviced fault (end-of-tick, all joiners counted)."""
        params = self.params
        if fault.participants > 1:
            self.stats.concurrent += 1
            self.accounting.charge(
                cluster_id, OsActivity.PGFLT_CONCURRENT, params.pgflt_concurrent_cost_ns
            )
            if self.cpi_handler is not None and self._want_cpi(fault):
                # The CPI gather extends the fault's service: resolution
                # waits for it, and late touchers keep joining meanwhile.
                self.sim.process(
                    self._cpi_then_resolve(cluster_id, page, fault), name="vm-cpi"
                )
                return
        else:
            self.stats.sequential += 1
            self.accounting.charge(
                cluster_id, OsActivity.PGFLT_SEQUENTIAL, params.pgflt_sequential_cost_ns
            )
        self._resolve(page, fault)

    def _cpi_then_resolve(
        self, cluster_id: int, page: int, fault: _InFlightFault
    ) -> Generator:
        """Process: run the fault-triggered CPI gather, then resolve."""
        assert self.cpi_handler is not None
        yield from self.cpi_handler(cluster_id)
        self.sim.call_at_tail(lambda _event: self._resolve(page, fault))

    def _resolve(self, page: int, fault: _InFlightFault) -> None:
        """Commit a serviced fault: admit the page, release the joiners."""
        self._admit(page)
        del self._in_flight[page]
        # Single trigger: the fault is deleted from _in_flight on the
        # previous line, so no later joiner can resolve it again.
        fault.resolved.succeed()  # cdr: noqa[CDR004]

    def _admit(self, page: int) -> None:
        """Make *page* resident, evicting FIFO under memory pressure."""
        self._resident[page] = None
        if (
            self.max_resident_pages is not None
            and len(self._resident) > self.max_resident_pages
        ):
            self._resident.popitem(last=False)
            self.stats.evictions += 1
            # Write-back of the evicted page, folded into the fault's
            # service path (the faulting CE waits it out).
            self.accounting.charge(
                0, OsActivity.PGFLT_SEQUENTIAL, self.params.page_writeback_cost_ns
            )

    def _want_cpi(self, fault: _InFlightFault) -> bool:
        """Deterministic thinning of fault-triggered CPI gathers."""
        fraction = self.params.pgflt_cpi_fraction
        if fraction <= 0.0:
            return False
        if fraction >= 1.0:
            return True
        period = max(1, round(1.0 / fraction))
        return self.stats.concurrent % period == 0

    def touch_many(self, cluster_id: int, pages: Iterable[int]) -> Generator:
        """Process: touch several pages in sequence."""
        for page in pages:
            yield from self.touch(cluster_id, page)

    def prefault(self, pages: Iterable[int]) -> None:
        """Mark pages resident without cost (e.g. program text at load)."""
        for page in pages:
            self._admit(page)

    def invalidate_resident(self, fraction: float) -> int:
        """Drop a fraction of the resident set (fault injection).

        Models a page-fault storm: the dropped pages must be re-faulted
        on next touch, so the storm's cost emerges through the normal
        fault path.  Victims are chosen deterministically (every k-th
        resident page, oldest first).  Returns the number dropped.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        pages = list(self._resident)
        if fraction >= 1.0:
            victims = pages
        else:
            step = max(1, int(round(1.0 / fraction)))
            victims = pages[::step]
        for page in victims:
            del self._resident[page]
        return len(victims)
