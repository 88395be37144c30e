"""Write-ahead journal for crash-safe campaign execution.

A campaign that dies -- a killed coordinator, a full disk, an operator
^C -- must be resumable without re-running completed cells and without
any doubt about *which* code produced the partial results.  The journal
is an append-only JSONL file (schema ``cedar-repro/journal/v1``):

* the **header** carries :func:`~repro.parallel.cache.code_fingerprint`,
  the seed, the sweep grid and the cache directory, so a resume can
  reconstruct the campaign and refuse to mix code versions;
* every cell's spec and BLAKE2 cell key are journaled **before** any
  dispatch (the write-ahead part: the full intent is on disk before any
  work starts);
* completions append ``done`` records carrying the result fingerprint
  (:func:`~repro.analyze.race.fingerprint_result`); exhausted cells
  append ``failed`` records; recovery events
  (respawns, speculation, checkpoints) append breadcrumbs.

Appends are single ``write()`` calls on an ``O_APPEND`` descriptor,
flushed and fsynced, so a crash can tear at most the final line --
:func:`load_journal` tolerates exactly that (a trailing line that does
not parse is dropped; anything torn earlier is corruption and raises).

Resume semantics live in :mod:`repro.parallel.durable`: completed cells
are *served from the result cache* (the ``done`` record is the index,
the cache envelope is the data -- each verifies independently), and a
journal whose header fingerprint does not match the running code is
refused (:class:`JournalMismatchError`), because resuming across a
model change could silently mix results from two different machines.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, TYPE_CHECKING, Any

from repro.parallel.cache import code_fingerprint
from repro.parallel.executor import CellSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.resilience import CellFailure
    from repro.core.runner import RunResult

__all__ = [
    "JOURNAL_SCHEMA",
    "CampaignJournal",
    "JournalError",
    "JournalMismatchError",
    "JournalState",
    "load_journal",
    "spec_from_dict",
    "spec_to_dict",
]

JOURNAL_SCHEMA = "cedar-repro/journal/v1"


class JournalError(ValueError):
    """A journal file is missing, malformed, or torn beyond the tail."""


class JournalMismatchError(JournalError):
    """Resume refused: the journal was written by different code.

    Results computed by one version of the model must never be mixed
    with results computed by another -- the cache would refuse to serve
    them anyway (the fingerprint is part of every cell key), so a
    "resume" would silently re-run everything while *claiming* to
    continue the original campaign.  Refusing loudly is the only honest
    behaviour.
    """


def spec_to_dict(spec: CellSpec) -> dict:
    """JSON form of a :class:`~repro.parallel.executor.CellSpec`."""
    return {
        "app": spec.app,
        "n_processors": spec.n_processors,
        "scale": spec.scale,
        "seed": spec.seed,
        "campaign": spec.campaign.to_dict() if spec.campaign is not None else None,
        "statfx_interval_ns": spec.statfx_interval_ns,
        "max_events": spec.max_events,
        "max_sim_time": spec.max_sim_time,
        "fingerprint_schedule": spec.fingerprint_schedule,
        "scenario": spec.scenario,
        "iteration_events": spec.iteration_events,
        "tie_break_seed": spec.tie_break_seed,
        "order_hazard": spec.order_hazard,
    }


def spec_from_dict(data: dict) -> CellSpec:
    """Rebuild a :class:`CellSpec` from :func:`spec_to_dict` output."""
    from repro.faults.spec import CampaignSpec

    campaign = data.get("campaign")
    return CellSpec(
        app=str(data["app"]),
        n_processors=int(data["n_processors"]),
        scale=float(data["scale"]),
        seed=int(data["seed"]),
        campaign=CampaignSpec.from_dict(campaign) if campaign is not None else None,
        statfx_interval_ns=int(data.get("statfx_interval_ns", 200_000)),
        max_events=data.get("max_events"),
        max_sim_time=data.get("max_sim_time"),
        fingerprint_schedule=bool(data.get("fingerprint_schedule", False)),
        scenario=data.get("scenario"),
        iteration_events=bool(data.get("iteration_events", False)),
        tie_break_seed=data.get("tie_break_seed"),
        order_hazard=bool(data.get("order_hazard", False)),
    )


class CampaignJournal:
    """Append-side handle on one campaign's write-ahead journal.

    Create with :meth:`create` (writes the header and every cell record
    up front) or :meth:`append_to` (re-opens an existing journal for a
    resume leg).  Every record lands with one atomic append + fsync, so
    the journal is valid after a crash at any instant.
    """

    def __init__(self, path: Path, fh: "IO[str]") -> None:
        self.path = path
        self._fh: "IO[str] | None" = fh

    @classmethod
    def create(
        cls,
        path: str | Path,
        specs: "list[CellSpec]",
        seed: int | None = None,
        label: str = "campaign",
        cache_dir: "str | Path | None" = None,
        sweep: "dict | None" = None,
    ) -> "CampaignJournal":
        """Start a fresh journal: header + one ``cell`` record per spec.

        *sweep* optionally records the grid (``apps``/``configs``/
        ``scale``/``seed``) so ``cedar-repro resume`` can rebuild the
        outcome tables; *cache_dir* records where completed results
        live.  Refuses to overwrite an existing journal.
        """
        path = Path(path)
        if path.exists():
            raise JournalError(
                f"journal {path} already exists; resume it or remove it"
            )
        path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        journal = cls(path, os.fdopen(fd, "w", encoding="utf-8"))
        seeds = {spec.seed for spec in specs}
        journal.append(
            {
                "schema": JOURNAL_SCHEMA,
                "label": label,
                "code_fingerprint": code_fingerprint(),
                "seed": seed if seed is not None else (
                    seeds.pop() if len(seeds) == 1 else None
                ),
                "n_cells": len(specs),
                "cache_dir": str(cache_dir) if cache_dir is not None else None,
                "sweep": sweep,
            }
        )
        for spec in specs:
            journal.append(
                {"ev": "cell", "key": spec.key(), "spec": spec_to_dict(spec)}
            )
        return journal

    @classmethod
    def append_to(cls, path: str | Path) -> "CampaignJournal":
        """Re-open an existing journal for appending (the resume leg)."""
        path = Path(path)
        if not path.exists():
            raise JournalError(f"journal {path} does not exist")
        fd = os.open(path, os.O_WRONLY | os.O_APPEND)
        return cls(path, os.fdopen(fd, "w", encoding="utf-8"))

    def append(self, payload: dict) -> None:
        """Atomically append one record (single write + flush + fsync)."""
        if self._fh is None:
            raise JournalError(f"journal {self.path} is closed")
        self._fh.write(json.dumps(payload, sort_keys=True) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def record_dispatch(self, spec: CellSpec, attempt: int) -> None:
        """Breadcrumb: a cell attempt was handed to the pool."""
        self.append({"ev": "dispatch", "key": spec.key(), "attempt": attempt})

    def record_done(
        self, spec: CellSpec, result: "RunResult", result_fingerprint: str
    ) -> None:
        """A cell completed; its result is in the cache under its key.

        *result_fingerprint* is the result's
        :func:`~repro.analyze.race.fingerprint_result` digest: the same
        on every path that produces the cell, so two journals of one
        campaign agree record for record.
        """
        self.append(
            {
                "ev": "done",
                "key": spec.key(),
                "result_fingerprint": result_fingerprint,
                "ct_ns": result.ct_ns,
            }
        )

    def record_failed(self, spec: CellSpec, failure: "CellFailure") -> None:
        """A cell exhausted its attempts; resume will retry it afresh."""
        self.append(
            {
                "ev": "failed",
                "key": spec.key(),
                "error_type": failure.error_type,
                "message": failure.message,
                "attempts": failure.attempts,
            }
        )

    def record_checkpoint(self, reason: str) -> None:
        """The campaign was interrupted cleanly; the journal is resumable."""
        self.append({"ev": "checkpoint", "reason": reason})

    def close(self) -> None:
        """Close the append handle (idempotent)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


@dataclass
class JournalState:
    """Everything :func:`load_journal` recovered from a journal file."""

    path: Path
    header: dict
    #: Cell specs in journal (= input) order.
    specs: "list[CellSpec]" = field(default_factory=list)
    #: Keys with a ``done`` record (result expected in the cache).
    done: "dict[str, dict]" = field(default_factory=dict)
    #: Keys whose last terminal record was ``failed``.
    failed: "dict[str, dict]" = field(default_factory=dict)
    #: Non-cell breadcrumbs (dispatch/checkpoint/recovery events).
    events: "list[dict]" = field(default_factory=list)
    #: Whether the final parsed line was a clean ``checkpoint``.
    checkpointed: bool = False

    @property
    def label(self) -> str:
        """The campaign label the journal was opened under."""
        return str(self.header.get("label", "campaign"))

    @property
    def cache_dir(self) -> "Path | None":
        """The result-cache directory recorded in the header."""
        raw = self.header.get("cache_dir")
        return Path(raw) if raw else None

    def incomplete(self) -> "list[CellSpec]":
        """The cells still owing a result, in journal order."""
        return [spec for spec in self.specs if spec.key() not in self.done]

    def check_fingerprint(self) -> None:
        """Refuse to resume across a code-fingerprint mismatch."""
        recorded = self.header.get("code_fingerprint")
        current = code_fingerprint()
        if recorded != current:
            raise JournalMismatchError(
                f"journal {self.path} was written by code {recorded}, but the "
                f"running code fingerprints as {current}; results must not be "
                f"mixed across versions -- re-run the campaign instead"
            )


def load_journal(path: str | Path) -> JournalState:
    """Parse a journal file into a :class:`JournalState`.

    A torn *final* line (crash mid-append) is dropped silently; a
    malformed line anywhere earlier raises :class:`JournalError`.  A
    ``failed`` cell that later gained a ``done`` record (a resume leg
    succeeded) counts as done.
    """
    path = Path(path)
    try:
        raw_lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise JournalError(f"cannot read journal {path}: {exc}") from exc
    records: list[dict] = []
    for index, line in enumerate(raw_lines):
        line = line.strip()
        if not line:
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            if index == len(raw_lines) - 1:
                break  # torn tail from a crash mid-append: tolerated
            raise JournalError(
                f"journal {path} line {index + 1} is corrupt: {exc}"
            ) from exc
    if not records:
        raise JournalError(f"journal {path} is empty")
    header = records[0]
    if header.get("schema") != JOURNAL_SCHEMA:
        raise JournalError(
            f"not a journal: expected schema {JOURNAL_SCHEMA!r}, "
            f"got {header.get('schema')!r}"
        )
    state = JournalState(path=path, header=header)
    for record in records[1:]:
        ev = record.get("ev")
        if ev == "cell":
            try:
                state.specs.append(spec_from_dict(record["spec"]))
            except (KeyError, TypeError, ValueError) as exc:
                raise JournalError(
                    f"journal {path} carries an unreadable cell spec: {exc}"
                ) from exc
        elif ev == "done":
            state.done[str(record["key"])] = record
            state.failed.pop(str(record["key"]), None)
        elif ev == "failed":
            state.failed[str(record["key"])] = record
        else:
            state.events.append(record)
    state.checkpointed = bool(records) and records[-1].get("ev") == "checkpoint"
    return state
