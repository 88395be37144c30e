"""The fault injector: interprets a campaign spec against a live stack.

Armed through :data:`repro.core.runner.PreRunHook`, the injector spawns
one simulation process per scheduled fault.  Each process sleeps until
its strike time, applies the fault through the model's public
degradation hooks, and (for transient faults) reverts it after its
duration.  All state changes go through the same seams the rest of the
model uses, so degraded behaviour *emerges* -- a slow bank shows up as
longer memory time, a dropped CE as redistributed iterations, an
inflated lock as kernel spin.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Generator

from repro.faults.ledger import FaultLedger, InjectedFault
from repro.faults.spec import CampaignSpec, FaultEvent
from repro.hardware.machine import CedarMachine
from repro.runtime.library import CedarFortranRuntime
from repro.sim.core import Simulator
from repro.xylem.kernel import XylemKernel

__all__ = ["FaultInjectionError", "FaultInjector", "FaultLedger", "InjectedFault"]


class FaultInjectionError(RuntimeError):
    """A fault could not be applied against the current stack."""


class FaultInjector:
    """Applies one campaign's faults to one assembled simulation stack."""

    def __init__(
        self,
        sim: Simulator,
        machine: CedarMachine,
        kernel: XylemKernel,
        runtime: CedarFortranRuntime,
        spec: CampaignSpec,
    ) -> None:
        self.sim = sim
        self.machine = machine
        self.kernel = kernel
        self.runtime = runtime
        self.spec = spec
        self.ledger = FaultLedger()
        self._armed = False
        # Aggregate degradation mirrored into the analytic model.  Each
        # bank keeps its active faults, so overlapping transients
        # compose and revert independently.
        self._bank_factors: dict[int, list[float]] = {}
        self._offline_banks: dict[int, int] = {}
        self._link_penalty_cycles = 0

    def arm(self) -> None:
        """Spawn one injection process per scheduled fault (idempotent).

        Arming disables no fast path: ``statfx`` reads only the activity
        board, which every fault kind reaches through ``set_active`` /
        ``set_idle`` like any other run (docs/fault-injection.md, "Fast
        paths under faults").
        """
        if self._armed:
            return
        self._armed = True
        for index, fault in enumerate(self.spec.faults):
            self.sim.process(
                self._fault_process(fault),
                name=f"fault-{index}-{fault.kind}",
            )

    # -- the per-fault process -------------------------------------------

    def _fault_process(self, fault: FaultEvent) -> Generator:
        sim = self.sim
        if fault.at_ns > 0:
            yield sim.timeout(fault.at_ns)
        record = InjectedFault(kind=fault.kind, at_ns=fault.at_ns, target=fault.target)
        revert = self._apply(fault, record)
        record.applied_ns = sim.now
        self.ledger.note_injected(record)
        if fault.duration_ns is not None and revert is not None:
            yield sim.timeout(fault.duration_ns)
            revert()
            record.reverted_ns = sim.now
            self.ledger.reverted += 1

    # -- application per kind --------------------------------------------

    def _apply(
        self, fault: FaultEvent, record: InjectedFault
    ) -> Callable[[], None] | None:
        """Apply one fault; returns a revert callable or ``None``."""
        handler: Callable[
            [FaultEvent, InjectedFault], Callable[[], None] | None
        ] = getattr(self, f"_apply_{fault.kind}")
        return handler(fault, record)

    def _sync_analytic(self) -> None:
        """Mirror aggregate bank/link degradation into the analytic model."""
        n_modules = self.machine.config.n_memory_modules
        online = [m for m in range(n_modules) if m not in self._offline_banks]
        factors = [self._bank_factor(m) for m in online]
        mean_factor = sum(factors) / len(online)
        self.machine.set_memory_degradation(
            bank_service_factor=mean_factor,
            worst_bank_factor=max(factors),
            offline_modules=len(self._offline_banks),
            link_penalty_cycles=float(self._link_penalty_cycles),
        )

    def _bank_factor(self, module: int) -> float:
        """Service factor of *module*: the product of its active slowdowns."""
        return math.prod(self._bank_factors.get(module, ()), start=1.0)

    def _apply_bank_slow(
        self, fault: FaultEvent, record: InjectedFault
    ) -> Callable[[], None] | None:
        target = fault.target
        factor = fault.factor
        assert target is not None and factor is not None
        if target >= self.machine.config.n_memory_modules:
            raise FaultInjectionError(
                f"bank_slow target {target} out of range "
                f"(machine has {self.machine.config.n_memory_modules} modules)"
            )
        active = self._bank_factors.setdefault(target, [])
        active.append(factor)
        self._sync_analytic()
        record.note = f"bank {target} service x{factor}"

        def revert() -> None:
            active.remove(factor)
            if not active:
                del self._bank_factors[target]
            self._sync_analytic()

        return revert

    def _apply_bank_offline(
        self, fault: FaultEvent, record: InjectedFault
    ) -> Callable[[], None] | None:
        target = fault.target
        assert target is not None
        n_modules = self.machine.config.n_memory_modules
        if target >= n_modules:
            raise FaultInjectionError(f"bank_offline target {target} out of range")
        offline = self._offline_banks
        if target not in offline and len(offline) + 1 >= n_modules:
            raise FaultInjectionError("cannot take the last online bank offline")
        offline[target] = offline.get(target, 0) + 1
        self._sync_analytic()
        record.note = f"bank {target} offline, traffic remapped onto survivors"

        def revert() -> None:
            # The bank comes back only when no other offline fault on
            # it is still active.
            offline[target] -= 1
            if offline[target]:
                return
            del offline[target]
            self._sync_analytic()

        return revert

    def _apply_switch_degrade(
        self, fault: FaultEvent, record: InjectedFault
    ) -> Callable[[], None] | None:
        extra_cycles = fault.extra_cycles
        assert extra_cycles is not None
        self._link_penalty_cycles += extra_cycles
        self._sync_analytic()
        record.note = f"+{extra_cycles} cycles per switch hop"

        def revert() -> None:
            self._link_penalty_cycles -= extra_cycles
            self._sync_analytic()

        return revert

    def _apply_ce_deconfig(
        self, fault: FaultEvent, record: InjectedFault
    ) -> Callable[[], None] | None:
        target = fault.target
        assert target is not None
        self.kernel.deconfigure_ce(target)
        record.note = f"CE {target} deconfigured (permanent)"
        return None

    def _apply_lock_inflate(
        self, fault: FaultEvent, record: InjectedFault
    ) -> Callable[[], None] | None:
        factor = fault.factor
        assert factor is not None
        sections = self.kernel.critical_sections
        sections.set_hold_factor(sections.hold_factor * factor)
        record.note = f"critical-section holds x{factor}"

        def revert() -> None:
            # Divide rather than restore a snapshot so overlapping
            # inflations compose and revert independently.
            sections.set_hold_factor(sections.hold_factor / factor)

        return revert

    def _apply_pagefault_storm(
        self, fault: FaultEvent, record: InjectedFault
    ) -> Callable[[], None] | None:
        fraction = fault.fraction
        assert fraction is not None
        dropped = self.kernel.vm.invalidate_resident(fraction)
        self.ledger.pages_invalidated += dropped
        record.note = f"dropped {dropped} resident pages (fraction {fraction})"
        return None
