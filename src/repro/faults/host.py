"""Host-level chaos: faults against the *harness*, not the machine.

:mod:`repro.faults` degrades the simulated Cedar; this module degrades
the measurement campaign itself -- the worker processes, the result
cache, the coordinator -- so the crash-safe execution layer
(:mod:`repro.parallel.durable`) can be exercised against the failures
long-running measurement infrastructure actually hits:

* ``worker_kill`` -- SIGKILL the worker once the cell has simulated but
  before its result is returned, so the coordinator sees a broken pool
  with the cell genuinely in flight and its whole attempt lost;
* ``worker_hang`` -- the worker stops making progress before the cell
  runs (caught by the health monitor's deadline/heartbeat checks);
* ``slow_start`` -- the worker dawdles before running the cell,
  manufacturing a straggler for speculative re-dispatch to beat.

Plans are seeded and JSON-serialisable (schema
``cedar-repro/host-chaos/v1``): the same ``(plan, grid)`` pair always
sabotages the same cells on the same attempts, so chaos runs are as
reproducible as healthy ones.  Faults strike on a *specific attempt*
(default: only the first), which is what lets a bounded same-seed retry
recover -- the simulation underneath is deterministic, so the retried
cell produces the byte-identical result.

Cache sabotage (:func:`corrupt_cache_entry`) is coordinator-side: it
truncates or bit-flips an on-disk envelope so the
:class:`~repro.parallel.cache.ResultCache` quarantine path can be
driven end-to-end.
"""

from __future__ import annotations

import json
import os
import signal
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.parallel.cache import ResultCache

__all__ = [
    "HOST_CHAOS_SCHEMA",
    "HOST_FAULT_KINDS",
    "HostChaosError",
    "HostChaosPlan",
    "HostFault",
    "apply_host_fault",
    "corrupt_cache_entry",
    "generate_host_chaos",
    "load_host_chaos",
    "save_host_chaos",
]

HOST_CHAOS_SCHEMA = "cedar-repro/host-chaos/v1"

#: Supported host fault kinds (worker-side sabotage).
HOST_FAULT_KINDS = ("worker_kill", "worker_hang", "slow_start")

#: How long a hung worker sleeps: effectively forever on a CI clock --
#: the health monitor is expected to kill it long before this expires.
_HANG_S = 3600.0


class HostChaosError(ValueError):
    """A host-chaos plan is malformed (bad JSON, unknown kind, bad field)."""


@dataclass(frozen=True)
class HostFault:
    """One planned act of sabotage against one cell attempt.

    Attributes
    ----------
    kind:
        One of :data:`HOST_FAULT_KINDS`.
    app / n_processors:
        The victim cell.
    attempt:
        The attempt number the fault strikes on (1-based).  Defaulting
        to 1 means the bounded same-seed retry always recovers.
    delay_s:
        ``slow_start``: how long the worker dawdles before running.
        Ignored for ``worker_kill`` and ``worker_hang``.
    """

    kind: str
    app: str
    n_processors: int
    attempt: int = 1
    delay_s: float = 0.05

    def __post_init__(self) -> None:
        if self.kind not in HOST_FAULT_KINDS:
            raise HostChaosError(
                f"unknown host fault kind {self.kind!r}; "
                f"expected one of {HOST_FAULT_KINDS}"
            )
        if self.attempt < 1:
            raise HostChaosError(
                f"{self.kind}: attempt must be >= 1, got {self.attempt}"
            )
        if self.delay_s < 0:
            raise HostChaosError(
                f"{self.kind}: delay_s must be >= 0, got {self.delay_s}"
            )


@dataclass(frozen=True)
class HostChaosPlan:
    """A named, seeded schedule of host faults over a sweep grid."""

    name: str
    seed: int = 1994
    faults: tuple[HostFault, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.name:
            raise HostChaosError("host chaos plan name must be non-empty")

    def for_cell(self, app: str, n_processors: int, attempt: int) -> HostFault | None:
        """The fault striking this cell attempt, if any (first match)."""
        for fault in self.faults:
            if (
                fault.app == app
                and fault.n_processors == n_processors
                and fault.attempt == attempt
            ):
                return fault
        return None

    def to_dict(self) -> dict:
        """JSON-serialisable form (schema ``cedar-repro/host-chaos/v1``)."""
        return {
            "schema": HOST_CHAOS_SCHEMA,
            "name": self.name,
            "seed": self.seed,
            "faults": [asdict(f) for f in self.faults],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HostChaosPlan":
        """Parse a plan dict, raising :class:`HostChaosError` on junk."""
        if not isinstance(data, dict):
            raise HostChaosError(
                f"host chaos plan must be a JSON object, got {type(data).__name__}"
            )
        known = {"schema", "name", "seed", "faults"}
        unknown = set(data) - known
        if unknown:
            raise HostChaosError(f"unknown host chaos fields: {sorted(unknown)}")
        raw_faults = data.get("faults", [])
        if not isinstance(raw_faults, list):
            raise HostChaosError("'faults' must be a list")
        faults = []
        for index, raw in enumerate(raw_faults):
            if not isinstance(raw, dict):
                raise HostChaosError(f"host fault #{index} must be an object")
            try:
                faults.append(HostFault(**raw))
            except TypeError as exc:
                raise HostChaosError(f"host fault #{index}: {exc}") from exc
        try:
            return cls(
                name=data.get("name", ""),
                seed=int(data.get("seed", 1994)),
                faults=tuple(faults),
            )
        except (TypeError, ValueError) as exc:
            if isinstance(exc, HostChaosError):
                raise
            raise HostChaosError(f"malformed host chaos plan: {exc}") from exc


def load_host_chaos(path: str | Path) -> HostChaosPlan:
    """Load a host-chaos JSON file, raising :class:`HostChaosError` on junk."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise HostChaosError(f"cannot read host chaos plan {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise HostChaosError(
            f"host chaos plan {path} is not valid JSON: {exc}"
        ) from exc
    return HostChaosPlan.from_dict(data)


def save_host_chaos(plan: HostChaosPlan, path: str | Path) -> None:
    """Write *plan* as pretty-printed JSON."""
    Path(path).write_text(json.dumps(plan.to_dict(), indent=2) + "\n")


def generate_host_chaos(
    apps: "tuple[str, ...] | list[str]",
    configs: "tuple[int, ...] | list[int]",
    seed: int,
    kills: int = 1,
    hangs: int = 1,
    stragglers: int = 1,
    straggle_delay_s: float = 1.5,
    name: str | None = None,
) -> HostChaosPlan:
    """Generate a seed-deterministic chaos plan over a sweep grid.

    Victim cells are drawn without replacement from ``apps x configs``
    with a single ``np.random.default_rng(seed)`` stream, so the same
    seed always sabotages the same cells.  Kills and hangs strike on
    attempt 1 only (the retry recovers); stragglers dawdle on every
    attempt of their cell (speculation, not retry, beats them).
    """
    grid = [(app, p) for app in apps for p in configs]
    wanted = kills + hangs + stragglers
    if wanted > len(grid):
        raise HostChaosError(
            f"plan wants {wanted} victim cells but the grid has {len(grid)}"
        )
    import numpy as np  # lazily: the CLI's import graph stays numpy-free

    rng = np.random.default_rng(seed)
    victims = [grid[int(i)] for i in rng.choice(len(grid), size=wanted, replace=False)]
    faults: list[HostFault] = []
    for _ in range(kills):
        app, p = victims.pop()
        faults.append(HostFault(kind="worker_kill", app=app, n_processors=p))
    for _ in range(hangs):
        app, p = victims.pop()
        faults.append(HostFault(kind="worker_hang", app=app, n_processors=p))
    for _ in range(stragglers):
        app, p = victims.pop()
        faults.append(
            HostFault(
                kind="slow_start",
                app=app,
                n_processors=p,
                delay_s=straggle_delay_s,
            )
        )
    return HostChaosPlan(
        name=name or f"host-chaos-{seed}",
        seed=seed,
        faults=tuple(sorted(faults, key=lambda f: (f.app, f.n_processors, f.kind))),
    )


def apply_host_fault(fault: HostFault) -> None:
    """Execute one act of sabotage inside the worker process.

    * ``slow_start`` sleeps *delay_s* -- the cell then runs normally,
      just late.
    * ``worker_hang`` sleeps effectively forever; the health monitor is
      expected to SIGKILL this process.
    * ``worker_kill`` SIGKILLs this process at once.  The durable worker
      calls it after the cell has simulated, so the kill is
      event-driven: it lands on every targeted attempt however fast the
      cell runs.
    """
    if fault.kind == "slow_start":
        time.sleep(fault.delay_s)
    elif fault.kind == "worker_hang":
        time.sleep(_HANG_S)
    else:
        os.kill(os.getpid(), signal.SIGKILL)


def corrupt_cache_entry(
    cache: "ResultCache", key: str, mode: str = "truncate"
) -> Path:
    """Damage the on-disk envelope for *key* (chaos-harness seam).

    ``truncate`` halves the file; ``flip`` XORs one byte in the middle.
    Either way the entry fails its digest check on the next read and
    must be quarantined, never served.  Raises :class:`HostChaosError`
    if the entry does not exist.
    """
    path = cache.path_for(key)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise HostChaosError(f"no cache entry to corrupt for key {key}") from exc
    if mode == "truncate":
        path.write_bytes(raw[: len(raw) // 2])
    elif mode == "flip":
        middle = len(raw) // 2
        damaged = bytearray(raw)
        damaged[middle] ^= 0xFF
        path.write_bytes(bytes(damaged))
    else:
        raise HostChaosError(f"unknown corruption mode {mode!r}")
    return path
