"""Campaign specifications: which faults, when, and against what.

A campaign is a JSON-serialisable, seeded description of a fault
schedule.  Everything that varies between runs lives here; the injector
(:mod:`repro.faults.injector`) is a pure interpreter of the spec, so a
given ``(campaign, seed)`` pair always produces the same degraded run
(the determinism contract of ``docs/fault-injection.md``).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

__all__ = [
    "DEFAULT_CONFIGS",
    "FAULT_KINDS",
    "CampaignError",
    "CampaignSpec",
    "FaultEvent",
    "generate_campaign",
    "load_campaign",
    "save_campaign",
]

#: Processor counts ``cedar-repro campaign`` sweeps when a spec names none.
DEFAULT_CONFIGS = (4,)

#: Supported fault kinds, in catalogue order (docs/fault-injection.md).
FAULT_KINDS = (
    "bank_slow",
    "bank_offline",
    "switch_degrade",
    "ce_deconfig",
    "lock_inflate",
    "pagefault_storm",
)


class CampaignError(ValueError):
    """A campaign spec is malformed (bad JSON, unknown kind, bad field)."""


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    Attributes
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    at_ns:
        Sim time at which the fault strikes.
    duration_ns:
        How long it lasts before reverting; ``None`` means permanent.
        ``ce_deconfig`` and ``pagefault_storm`` must be permanent (a
        dropped CE stays dropped; a storm is instantaneous).
    target:
        Kind-specific index: memory module (``bank_*``) or CE id
        (``ce_deconfig``).
    factor:
        Multiplier for ``bank_slow`` (service time) and ``lock_inflate``
        (critical-section hold time); must be > 1.
    fraction:
        Resident-set fraction dropped by ``pagefault_storm``; in (0, 1].
    extra_cycles:
        Per-hop penalty in CE cycles for ``switch_degrade``; >= 1.
    """

    kind: str
    at_ns: int
    duration_ns: int | None = None
    target: int | None = None
    factor: float | None = None
    fraction: float | None = None
    extra_cycles: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise CampaignError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.at_ns < 0:
            raise CampaignError(f"{self.kind}: at_ns must be >= 0, got {self.at_ns}")
        if self.duration_ns is not None and self.duration_ns <= 0:
            raise CampaignError(
                f"{self.kind}: duration_ns must be positive or null, "
                f"got {self.duration_ns}"
            )
        validator = getattr(self, f"_check_{self.kind}")
        validator()

    def _require_target(self) -> None:
        if self.target is None or self.target < 0:
            raise CampaignError(f"{self.kind}: requires a non-negative target index")

    def _check_bank_slow(self) -> None:
        self._require_target()
        if self.factor is None or self.factor <= 1.0:
            raise CampaignError(f"bank_slow: factor must be > 1, got {self.factor}")

    def _check_bank_offline(self) -> None:
        self._require_target()

    def _check_switch_degrade(self) -> None:
        if self.extra_cycles is None or self.extra_cycles < 1:
            raise CampaignError(
                f"switch_degrade: extra_cycles must be >= 1, got {self.extra_cycles}"
            )

    def _check_ce_deconfig(self) -> None:
        self._require_target()
        if self.duration_ns is not None:
            raise CampaignError(
                "ce_deconfig: must be permanent (duration_ns null); Xylem does "
                "not return dropped CEs mid-run"
            )

    def _check_lock_inflate(self) -> None:
        if self.factor is None or self.factor <= 1.0:
            raise CampaignError(f"lock_inflate: factor must be > 1, got {self.factor}")

    def _check_pagefault_storm(self) -> None:
        if self.fraction is None or not 0.0 < self.fraction <= 1.0:
            raise CampaignError(
                f"pagefault_storm: fraction must be in (0, 1], got {self.fraction}"
            )
        if self.duration_ns is not None:
            raise CampaignError(
                "pagefault_storm: must be instantaneous (duration_ns null)"
            )


@dataclass(frozen=True)
class CampaignSpec:
    """A named, seeded fault schedule plus its intended sweep grid."""

    name: str
    seed: int = 1994
    description: str = ""
    #: Applications to sweep when the campaign itself drives a sweep
    #: (``cedar-repro campaign``); empty means the caller chooses.
    apps: tuple[str, ...] = ()
    #: Processor counts to sweep; empty means the caller chooses.
    configs: tuple[int, ...] = ()
    faults: tuple[FaultEvent, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.name:
            raise CampaignError("campaign name must be non-empty")

    def check_processors(self, n_processors: int) -> None:
        """Raise :class:`CampaignError` if a fault names a CE beyond *n_processors*.

        Lets a single-run caller refuse the campaign before the run
        starts instead of failing when the ``ce_deconfig`` strikes.
        """
        for index, fault in enumerate(self.faults):
            target = fault.target
            if fault.kind == "ce_deconfig" and target is not None and target >= n_processors:
                raise CampaignError(
                    f"fault #{index} (ce_deconfig at {fault.at_ns} ns) "
                    f"targets CE {target}, out of range for P={n_processors}"
                )

    def to_dict(self) -> dict:
        """JSON-serialisable form (schema ``cedar-repro/campaign/v1``)."""
        return {
            "schema": "cedar-repro/campaign/v1",
            "name": self.name,
            "seed": self.seed,
            "description": self.description,
            "apps": list(self.apps),
            "configs": list(self.configs),
            "faults": [
                {k: v for k, v in asdict(f).items() if v is not None}
                for f in self.faults
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignSpec":
        """Parse a campaign dict, raising :class:`CampaignError` on junk."""
        if not isinstance(data, dict):
            raise CampaignError(f"campaign must be a JSON object, got {type(data).__name__}")
        known = {"schema", "name", "seed", "description", "apps", "configs", "faults"}
        unknown = set(data) - known
        if unknown:
            raise CampaignError(f"unknown campaign fields: {sorted(unknown)}")
        raw_faults = data.get("faults", [])
        if not isinstance(raw_faults, list):
            raise CampaignError("'faults' must be a list")
        faults = []
        for index, raw in enumerate(raw_faults):
            if not isinstance(raw, dict):
                raise CampaignError(f"fault #{index} must be an object")
            try:
                faults.append(FaultEvent(**raw))
            except TypeError as exc:
                raise CampaignError(f"fault #{index}: {exc}") from exc
        try:
            return cls(
                name=data.get("name", ""),
                seed=int(data.get("seed", 1994)),
                description=str(data.get("description", "")),
                apps=tuple(data.get("apps", ())),
                configs=tuple(int(p) for p in data.get("configs", ())),
                faults=tuple(faults),
            )
        except (TypeError, ValueError) as exc:
            if isinstance(exc, CampaignError):
                raise
            raise CampaignError(f"malformed campaign: {exc}") from exc


def load_campaign(path: str | Path) -> CampaignSpec:
    """Load a campaign JSON file, raising :class:`CampaignError` on junk."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CampaignError(f"cannot read campaign file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CampaignError(f"campaign file {path} is not valid JSON: {exc}") from exc
    return CampaignSpec.from_dict(data)


def save_campaign(spec: CampaignSpec, path: str | Path) -> None:
    """Write *spec* as pretty-printed JSON."""
    Path(path).write_text(json.dumps(spec.to_dict(), indent=2) + "\n")


def generate_campaign(
    seed: int,
    n_faults: int = 4,
    horizon_ns: int = 50_000_000,
    n_memory_modules: int = 32,
    n_processors: int | None = None,
    ces_per_cluster: int = 8,
    name: str | None = None,
) -> CampaignSpec:
    """Generate a random (but seed-deterministic) campaign.

    Draws kinds, strike times and targets from a single
    ``np.random.default_rng(seed)`` stream, so the same seed always
    yields the same spec.  CE drops target the first *n_processors* CEs
    -- by default the smallest of :data:`DEFAULT_CONFIGS`, where a
    campaign that names no configs runs -- and are capped below a full
    cluster so the kernel's cluster-empty guard cannot fire.  A machine
    of fewer CEs than *ces_per_cluster* is one cluster of them all, as
    in :meth:`~repro.hardware.config.CedarConfig.with_processors`.
    """
    if n_faults <= 0:
        raise CampaignError(f"n_faults must be positive, got {n_faults}")
    if n_processors is None:
        n_processors = min(DEFAULT_CONFIGS)
    ces_per_cluster = min(ces_per_cluster, n_processors)
    import numpy as np  # lazily: the CLI's import graph stays numpy-free

    rng = np.random.default_rng(seed)
    faults = []
    dropped_per_cluster: dict[int, int] = {}
    for _ in range(n_faults):
        kind = FAULT_KINDS[int(rng.integers(0, len(FAULT_KINDS)))]
        at_ns = int(rng.integers(0, horizon_ns))
        if kind == "bank_slow":
            faults.append(
                FaultEvent(
                    kind=kind,
                    at_ns=at_ns,
                    target=int(rng.integers(0, n_memory_modules)),
                    factor=float(2 + int(rng.integers(0, 7))),
                )
            )
        elif kind == "bank_offline":
            faults.append(
                FaultEvent(kind=kind, at_ns=at_ns, target=int(rng.integers(0, n_memory_modules)))
            )
        elif kind == "switch_degrade":
            faults.append(
                FaultEvent(kind=kind, at_ns=at_ns, extra_cycles=int(rng.integers(1, 9)))
            )
        elif kind == "ce_deconfig":
            ce = int(rng.integers(0, n_processors))
            cluster = ce // ces_per_cluster
            if dropped_per_cluster.get(cluster, 0) >= ces_per_cluster - 1:
                continue
            dropped_per_cluster[cluster] = dropped_per_cluster.get(cluster, 0) + 1
            faults.append(FaultEvent(kind=kind, at_ns=at_ns, target=ce))
        elif kind == "lock_inflate":
            faults.append(
                FaultEvent(
                    kind=kind,
                    at_ns=at_ns,
                    factor=float(2 + int(rng.integers(0, 4))),
                    duration_ns=int(rng.integers(1, horizon_ns)),
                )
            )
        else:  # pagefault_storm
            faults.append(
                FaultEvent(
                    kind=kind,
                    at_ns=at_ns,
                    fraction=float(int(rng.integers(1, 11))) / 10.0,
                )
            )
    return CampaignSpec(
        name=name or f"generated-{seed}",
        seed=seed,
        description=f"randomly generated: {n_faults} faults over {horizon_ns} ns",
        faults=tuple(sorted(faults, key=lambda f: (f.at_ns, f.kind))),
    )
