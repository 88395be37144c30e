"""The fault injector's ledger, a plain record.

:class:`FaultLedger` and its :class:`InjectedFault` records live apart
from :mod:`repro.faults.injector` so that a fault-campaign result,
which carries its ledger, unpickles without loading the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.registry import MetricsRegistry

__all__ = ["FaultLedger", "InjectedFault"]


@dataclass
class InjectedFault:
    """The record of one fault's lifetime during a run."""

    kind: str
    at_ns: int
    applied_ns: int = -1
    reverted_ns: int = -1
    target: int | None = None
    note: str = ""


@dataclass
class FaultLedger:
    """Counters of injection activity, harvested into ``faults.*``."""

    records: list[InjectedFault] = field(default_factory=list)
    injected: int = 0
    reverted: int = 0
    pages_invalidated: int = 0
    by_kind: dict[str, int] = field(default_factory=dict)

    def note_injected(self, record: InjectedFault) -> None:
        """Record one applied fault."""
        self.records.append(record)
        self.injected += 1
        self.by_kind[record.kind] = self.by_kind.get(record.kind, 0) + 1

    def collect(self, registry: MetricsRegistry) -> None:
        """Fold the ledger into an obs metrics registry."""
        registry.counter("faults.injected").inc(self.injected)
        registry.counter("faults.reverted").inc(self.reverted)
        for kind, count in sorted(self.by_kind.items()):
            registry.counter(f"faults.{kind}.count").inc(count)
        if self.pages_invalidated:
            registry.counter("faults.pagefault.pages_invalidated").inc(
                self.pages_invalidated
            )
