"""Content-addressed on-disk cache of sweep-cell results.

A sweep cell is fully determined by its inputs: the simulation is
deterministic, so ``(app, P, scale, seed, campaign, watchdogs, code
version)`` names its result uniquely.  :func:`cell_key` folds exactly
those inputs into a BLAKE2 fingerprint; :class:`ResultCache` maps the
fingerprint to a pickled :class:`~repro.core.runner.RunResult` record
on disk.

Invalidation rules
------------------
* Any change to a key field (app, processor count, scale, seed,
  campaign spec, statfx interval, watchdog limits, and the diagnostic
  opt-ins: schedule hashing, iteration events, tie-break seed, planted
  order hazard) changes the key.
* A scenario cell additionally keys on the BLAKE2 digest of its
  canonical scenario document -- never on the scenario's display name
  -- so two different documents named alike can never collide.
* Any change to the source tree under ``src/repro`` changes
  :func:`code_fingerprint` and therefore every key: a new code version
  never reads an old version's results.
* Entries are verified on read: schema, stored key and a payload digest
  must all match, otherwise the entry counts as *corrupt* and is
  treated as a miss -- a truncated or bit-flipped file is never served.

Writes are atomic (temp file + ``os.replace``), so concurrent writers
-- e.g. two pytest sessions sharing one cache directory -- can race
safely: last writer wins with an identical payload.

Degradation rules
-----------------
The cache is an accelerator, never a dependency, so *no* cache-side
I/O trouble may abort a sweep:

* Any :class:`OSError` on write (ENOSPC, EROFS, a yanked network
  mount) degrades that put to a no-op -- counted in
  ``cache.write_errors`` with a one-time warning -- and after
  :data:`ResultCache.MAX_WRITE_ERRORS` consecutive failures the cache
  stops attempting writes entirely (``cache.disabled``).
* A corrupt envelope is *quarantined*: moved aside to
  ``<dir>/quarantine/`` (so the damage stays inspectable and is never
  re-read), counted in ``cache.quarantined``, and treated as a miss.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import sys
import warnings
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.runner import RunResult
    from repro.obs.registry import MetricsRegistry
    from repro.parallel.executor import CellSpec

__all__ = [
    "CACHE_SCHEMA",
    "ResultCache",
    "cell_key",
    "code_fingerprint",
    "default_cache_dir",
]

CACHE_SCHEMA = "cedar-repro/cell-cache/v1"
# v1 -> v2: scenario cells added a "scenario" document-digest field.
KEY_SCHEMA = "cedar-repro/cell-key/v2"

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "CEDAR_REPRO_CACHE"

_code_fingerprint: str | None = None


def default_cache_dir() -> Path:
    """The cache directory the CLI/tests use unless told otherwise.

    ``$CEDAR_REPRO_CACHE`` when set, else ``.cedar-cache`` under the
    current working directory.
    """
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    return Path(".cedar-cache")


def code_fingerprint() -> str:
    """BLAKE2 digest of the code that produced a result.

    Covers every ``.py`` file under ``src/repro``, the project's
    ``pyproject.toml`` (a dependency pin or build-config change can
    alter results without touching model source), and the running
    interpreter's ``major.minor`` version.  Computed once per process;
    part of every cell key so that results simulated by one version of
    the model are never served to another.
    """
    global _code_fingerprint
    if _code_fingerprint is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        digest = hashlib.blake2b(digest_size=16)
        for path in sorted(root.rglob("*.py"), key=lambda p: p.relative_to(root).as_posix()):
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(b"\x00")
            digest.update(path.read_bytes())
            digest.update(b"\x00")
        # src/repro -> src -> repo root (absent for an installed tree).
        pyproject = root.parent.parent / "pyproject.toml"
        if pyproject.is_file():
            digest.update(b"pyproject.toml\x00")
            digest.update(pyproject.read_bytes())
            digest.update(b"\x00")
        digest.update(
            f"python/{sys.version_info.major}.{sys.version_info.minor}".encode()
        )
        _code_fingerprint = digest.hexdigest()
    return _code_fingerprint


def cell_key(spec: CellSpec, code: str | None = None) -> str:
    """Content fingerprint of one sweep cell.

    *spec* is a :class:`~repro.parallel.executor.CellSpec`; *code*
    overrides :func:`code_fingerprint` (the property-test seam).
    """
    campaign = spec.campaign.to_dict() if spec.campaign is not None else None
    # Scenario cells are keyed by the *document digest*, never the
    # display name: two different scenario files that happen to share a
    # name can never collide, and renaming a document without changing
    # its program does not change its key beyond the name field itself.
    scenario_digest = (
        hashlib.blake2b(spec.scenario.encode("utf-8"), digest_size=16).hexdigest()
        if spec.scenario is not None
        else None
    )
    payload = {
        "schema": KEY_SCHEMA,
        "app": spec.app,
        "n_processors": spec.n_processors,
        # repr() keeps the full precision of the float: 0.1 and
        # 0.1000000000000001 are different workloads.
        "scale": repr(float(spec.scale)),
        "seed": spec.seed,
        "campaign": campaign,
        "scenario": scenario_digest,
        "statfx_interval_ns": spec.statfx_interval_ns,
        "max_events": spec.max_events,
        "max_sim_time": spec.max_sim_time,
        "fingerprint_schedule": spec.fingerprint_schedule,
        "iteration_events": spec.iteration_events,
        "tie_break_seed": spec.tie_break_seed,
        "order_hazard": spec.order_hazard,
        "code": code if code is not None else code_fingerprint(),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(canonical.encode(), digest_size=16).hexdigest()


class ResultCache:
    """On-disk store of cell results, keyed by :func:`cell_key`.

    Layout: ``<dir>/<key[:2]>/<key>.pkl``.  Each file pickles an
    envelope ``{"schema", "key", "digest", "payload"}`` where
    ``payload`` is the inner pickle of the result and ``digest`` its
    BLAKE2 checksum; :meth:`get` re-verifies all three before serving.
    """

    #: Consecutive write failures before the cache stops trying writes.
    MAX_WRITE_ERRORS = 3

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.puts = 0
        self.write_errors = 0
        self.quarantined = 0
        #: Writes disabled after repeated failures (degrade-to-off).
        self.disabled = False
        self._consecutive_write_errors = 0
        self._warned_write = False

    def path_for(self, key: str) -> Path:
        """Where the entry for *key* lives (whether or not it exists)."""
        return self.directory / key[:2] / f"{key}.pkl"

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt envelope aside so it is never re-read.

        Best-effort: if even the move fails (read-only disk), the entry
        stays in place and simply keeps counting as corrupt on reads.
        """
        target = self.directory / "quarantine" / path.name
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
        except OSError:
            return
        self.quarantined += 1

    def get(self, key: str) -> "RunResult | None":
        """The cached result for *key*, or ``None`` on miss/corruption."""
        path = self.path_for(key)
        try:
            raw = path.read_bytes()
        except OSError:
            self.misses += 1
            return None
        try:
            envelope = pickle.loads(raw)
            if not isinstance(envelope, dict):
                raise ValueError("cache envelope is not a dict")
            if envelope.get("schema") != CACHE_SCHEMA:
                raise ValueError(f"bad cache schema {envelope.get('schema')!r}")
            if envelope.get("key") != key:
                raise ValueError("cache entry key mismatch")
            payload = envelope["payload"]
            digest = hashlib.blake2b(payload, digest_size=16).hexdigest()
            if digest != envelope.get("digest"):
                raise ValueError("cache payload digest mismatch")
            result = pickle.loads(payload)
        except Exception:  # noqa: BLE001 - any damage means "not cached"
            self.corrupt += 1
            self.misses += 1
            self._quarantine(path)
            return None
        self.hits += 1
        return result

    def put(self, key: str, result: "RunResult") -> Path | None:
        """Store a detached *result* under *key* (atomic replace).

        Returns the entry path, or ``None`` when the write failed or
        writes are disabled.  A cache write failure (ENOSPC, EROFS,
        ...) must never abort the sweep that produced the result: it is
        counted, warned about once, and the sweep continues cache-less.
        """
        if self.disabled:
            return None
        payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        envelope = {
            "schema": CACHE_SCHEMA,
            "key": key,
            "digest": hashlib.blake2b(payload, digest_size=16).hexdigest(),
            "payload": payload,
        }
        path = self.path_for(key)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_bytes(pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL))
            os.replace(tmp, path)
        except OSError as exc:
            self.write_errors += 1
            self._consecutive_write_errors += 1
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
            if not self._warned_write:
                self._warned_write = True
                warnings.warn(
                    f"result cache write to {self.directory} failed "
                    f"({type(exc).__name__}: {exc}); continuing without "
                    f"caching this result",
                    RuntimeWarning,
                    stacklevel=2,
                )
            if self._consecutive_write_errors >= self.MAX_WRITE_ERRORS:
                self.disabled = True
                warnings.warn(
                    f"result cache at {self.directory} disabled after "
                    f"{self._consecutive_write_errors} consecutive write "
                    f"failures; the sweep continues cache-off",
                    RuntimeWarning,
                    stacklevel=2,
                )
            return None
        self._consecutive_write_errors = 0
        self.puts += 1
        return path

    def collect(self, registry: MetricsRegistry) -> None:
        """Fold the hit/miss counters into ``cache.*`` metrics."""
        registry.counter("cache.hits").inc(self.hits)
        registry.counter("cache.misses").inc(self.misses)
        registry.counter("cache.corrupt").inc(self.corrupt)
        registry.counter("cache.puts").inc(self.puts)
        registry.counter("cache.write_errors").inc(self.write_errors)
        registry.counter("cache.quarantined").inc(self.quarantined)
        registry.gauge("cache.disabled").set(1 if self.disabled else 0)
