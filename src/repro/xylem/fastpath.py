"""Analytic fast paths for the Xylem OS model.

The OS layer's event cost is dominated by process bookkeeping, not by
time: daemons, CPI gathers, critical-section visits and page-fault
services are all *strictly sequential* children -- spawned with
``sim.process`` and awaited immediately.  Each such spawn costs an
``Initialize`` event, a termination event and a process object for a
child whose delays are the only part that matters.

When the fast path is armed, :meth:`XylemKernel._run_child` inlines
those children with ``yield from`` (no events, identical delays), and
:meth:`VirtualMemory.touch_many` elides already-resident pages without
even entering the touch path -- the warm part of a warm/cold page sweep
costs zero events instead of two per page.

Arming follows :mod:`repro.runtime.fastpath`: the environment policy
(:mod:`repro.sim.policy`) alone, decided once when the kernel is built.
Trace sinks, tie-break perturbation and fault campaigns leave it armed:
a fused child yields the same delays as a spawned one, so a fault that
changes a delay changes it on both paths alike.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.policy import fastpath_policy

__all__ = ["XylemFastPath", "XylemFastPathStats"]


@dataclass
class XylemFastPathStats:
    """Fused/exact split of OS-layer child execution
    (``xylem.fastpath.*`` metrics namespace)."""

    #: OS service children inlined instead of spawned (CPI gathers,
    #: critical sections, context switches, page-fault services).
    fused_spawns: int = 0
    #: Already-resident pages skipped by the fused ``touch_many`` sweep.
    warm_elisions: int = 0
    #: Children spawned exactly because the engine was disarmed.
    exact_spawns: int = 0


class XylemFastPath:
    """Arming state + counters for the OS-layer fast paths."""

    __slots__ = ("stats", "on")

    def __init__(self) -> None:
        self.stats = XylemFastPathStats()
        #: Whether children may be inlined in this run; fixed at construction.
        self.on = fastpath_policy()

    @property
    def mode(self) -> str:
        """``"batched"`` or ``"exact"``: which path serves new children."""
        return "batched" if self.on else "exact"
