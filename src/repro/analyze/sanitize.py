"""Dynamic schedule-order sanitizer.

The linter (:mod:`repro.analyze.rules`) catches the static hazards; this
module checks the property itself at runtime: two runs of the same
workload under the same seed must process *exactly* the same events in
*exactly* the same order.

:class:`DeterminismSink` plugs into the kernel's
:class:`~repro.obs.tracing.TraceSink` protocol and

* folds the processed-event order into a running BLAKE2 hash (the
  **schedule hash** -- equal hashes mean identical schedules);
* keeps a bounded prefix of the order so two runs can be diffed down to
  the first diverging event;
* records **tie-break ambiguities** reported by the kernel's audit hook:
  pairs of events at the same ``(time, priority)`` whose relative order
  is decided only by queue insertion order.  Insertion order *is*
  deterministic for a fixed program, but it is the schedule's most
  refactoring-fragile property -- any reordering of ``schedule()`` calls
  silently permutes such events -- so the sanitizer surfaces where the
  model relies on it.

:func:`sanitize_app` runs a workload ``runs`` times under one seed and
diffs the schedule hashes; ``cedar-repro sanitize`` wraps it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.obs.tracing import TraceSink

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.core import Event, Process

__all__ = [
    "SCHEDULE_HASH_DOMAIN",
    "DeterminismSink",
    "ScheduleHashDomainError",
    "TieBreakRecord",
    "RunDigest",
    "SanitizeReport",
    "same_schedule",
    "sanitize_app",
    "split_schedule_hash",
]

#: Version tag carried by every schedule hash.  Bump this whenever an
#: intentional kernel or model change alters the processed-event stream
#: (v1 -> v2: the batched vector fast path replaced per-packet events
#: with per-stage milestones; v2 -> v3: the end-of-tick tail bands added
#: settle-point events -- burst observe slots, arbitration grants, VM
#: fault commits -- to every run's stream; deleting the batched vector
#: path later changed only packet-level memory streams, which no app
#: cell builds, so v3 stood; v3 -> v4: the runtime, xylem and statfx
#: fast paths stay armed under a sink, so hashed streams lose the fused
#: children, the lean-lock handoffs and the statfx sampler wakes;
#: v4 -> v5: the lean locks went, so every pickup and barrier detach
#: is an arbitrated request, grant, hold and release again).
#: Hashes from different domains are *incomparable*:
#: :func:`same_schedule` raises instead of reporting them as
#: nondeterminism.
SCHEDULE_HASH_DOMAIN = "cedar-repro/schedule/v5"

#: Domain assumed for hashes recorded before versioning existed.
_LEGACY_DOMAIN = "cedar-repro/schedule/v1"


class ScheduleHashDomainError(ValueError):
    """Two schedule hashes from different domains were compared."""


def split_schedule_hash(value: str) -> tuple[str, str]:
    """Split a schedule hash into ``(domain, digest)``.

    Bare digests (recorded before the domain tag existed) belong to the
    implicit legacy domain ``cedar-repro/schedule/v1``.
    """
    domain, sep, digest = value.rpartition(":")
    if not sep:
        return _LEGACY_DOMAIN, value
    return domain, digest


def same_schedule(a: str, b: str) -> bool:
    """Whether two schedule hashes describe the same event order.

    Raises :class:`ScheduleHashDomainError` when the hashes come from
    different domains -- e.g. one side was recorded before a kernel
    change that intentionally altered the event stream.  That situation
    calls for re-recording the stored hash, and must not be mistaken
    for (or hidden among) genuine nondeterminism.
    """
    domain_a, digest_a = split_schedule_hash(a)
    domain_b, digest_b = split_schedule_hash(b)
    if domain_a != domain_b:
        raise ScheduleHashDomainError(
            f"schedule hashes are from different domains ({domain_a!r} vs "
            f"{domain_b!r}): the event stream definition changed between "
            "recordings.  Re-record the stored hash under "
            f"{SCHEDULE_HASH_DOMAIN!r}; this is not nondeterminism."
        )
    return digest_a == digest_b


@dataclass(frozen=True)
class TieBreakRecord:
    """Two events at the same ``(time, priority)`` ordered only by insertion."""

    t_ns: int
    priority: int
    first: str
    second: str

    def format(self) -> str:
        return (
            f"t={self.t_ns}ns prio={self.priority}: "
            f"{self.first} before {self.second} (insertion order only)"
        )


def _event_token(event: "Event", when: int) -> str:
    """Stable per-event label folded into the schedule hash.

    Uses only run-independent attributes (simulated time, event class,
    process name) -- never ``id()`` or anything address-derived.
    """
    name = getattr(event, "name", "")
    return f"{when}|{type(event).__name__}|{name}"


class DeterminismSink(TraceSink):
    """Kernel observer that fingerprints the processed-event order.

    Parameters
    ----------
    order_capacity:
        Number of order tokens retained verbatim for divergence
        diffing; the hash always covers the *full* schedule.
    ambiguity_capacity:
        Number of tie-break samples retained (the count is unbounded).
    """

    def __init__(
        self, order_capacity: int = 100_000, ambiguity_capacity: int = 256
    ) -> None:
        if order_capacity < 0 or ambiguity_capacity < 0:
            raise ValueError("capacities must be non-negative")
        self.order_capacity = order_capacity
        self.ambiguity_capacity = ambiguity_capacity
        self._hash = hashlib.blake2b(digest_size=16)
        self.events_processed = 0
        self.order: list[str] = []
        self.order_dropped = 0
        self.ambiguity_count = 0
        self.ambiguities: list[TieBreakRecord] = []

    # -- TraceSink protocol -------------------------------------------------

    def on_event_processed(self, event: "Event", when: int) -> None:
        token = _event_token(event, when)
        self._hash.update(token.encode())
        self._hash.update(b"\x00")
        self.events_processed += 1
        if len(self.order) < self.order_capacity:
            self.order.append(token)
        else:
            self.order_dropped += 1

    def on_tie_break(
        self, when: int, priority: int, first: "Event", second: "Event"
    ) -> None:
        self.ambiguity_count += 1
        if len(self.ambiguities) < self.ambiguity_capacity:
            self.ambiguities.append(
                TieBreakRecord(
                    t_ns=when,
                    priority=priority,
                    first=_event_token(first, when),
                    second=_event_token(second, when),
                )
            )

    def on_process_ended(self, process: "Process") -> None:
        # Fold process lifetimes in as well: a run that schedules the
        # same events but retires processes differently is not the same
        # schedule.
        self._hash.update(f"end|{process.sim.now}|{process.name}".encode())
        self._hash.update(b"\x00")

    # -- results ------------------------------------------------------------

    @property
    def schedule_hash(self) -> str:
        """Domain-tagged digest of the processed-event order so far.

        The ``cedar-repro/schedule/vN:`` prefix names the event-stream
        definition the digest was computed under; compare hashes with
        :func:`same_schedule` so cross-domain comparisons fail loudly.
        """
        return f"{SCHEDULE_HASH_DOMAIN}:{self._hash.hexdigest()}"

    def first_divergence(self, other: "DeterminismSink") -> int | None:
        """Index of the first differing order token versus *other*.

        ``None`` means no divergence within the retained prefixes (the
        schedule hashes are the authoritative comparison).
        """
        for index, (mine, theirs) in enumerate(zip(self.order, other.order)):
            if mine != theirs:
                return index
        if len(self.order) != len(other.order):
            return min(len(self.order), len(other.order))
        return None


@dataclass
class RunDigest:
    """What one sanitized run produced."""

    schedule_hash: str
    events_processed: int
    ct_ns: int
    ambiguity_count: int


@dataclass
class SanitizeReport:
    """Outcome of running one workload several times under one seed."""

    app: str
    n_processors: int
    scale: float
    seed: int
    digests: list[RunDigest] = field(default_factory=list)
    #: Index of the first diverging event between runs 0 and 1 within
    #: the retained order prefixes (``None`` if none observed).
    divergence_index: int | None = None
    #: Sample order tokens at the divergence, ``(run0, run1)``.
    divergence_tokens: tuple[str, str] | None = None
    #: Sample tie-break ambiguities from the first run.
    ambiguity_samples: list[TieBreakRecord] = field(default_factory=list)

    @property
    def deterministic(self) -> bool:
        """All runs produced the same schedule hash and completion time."""
        if not self.digests:
            return True
        head = self.digests[0]
        return all(
            d.schedule_hash == head.schedule_hash and d.ct_ns == head.ct_ns
            for d in self.digests[1:]
        )

    def format(self) -> str:
        lines = [
            f"sanitize {self.app} p={self.n_processors} scale={self.scale} "
            f"seed={self.seed}: {len(self.digests)} run(s)"
        ]
        for index, digest in enumerate(self.digests):
            lines.append(
                f"  run {index}: hash {digest.schedule_hash} "
                f"events {digest.events_processed} ct_ns {digest.ct_ns} "
                f"tie-breaks {digest.ambiguity_count}"
            )
        if self.deterministic:
            lines.append("  schedule hashes identical: deterministic")
        else:
            lines.append("  SCHEDULE HASHES DIFFER: run is not reproducible")
            if self.divergence_index is not None and self.divergence_tokens:
                run0, run1 = self.divergence_tokens
                lines.append(
                    f"  first divergence at event #{self.divergence_index}: "
                    f"run0 processed {run0!r}, run1 processed {run1!r}"
                )
        if self.ambiguity_samples:
            lines.append(
                f"  {self.digests[0].ambiguity_count} same-(time, priority) "
                "tie-break(s) resolved by insertion order; samples:"
            )
            for record in self.ambiguity_samples[:5]:
                lines.append(f"    {record.format()}")
        return "\n".join(lines)


def sanitize_app(
    app: str,
    n_processors: int,
    scale: float = 0.02,
    seed: int = 1994,
    runs: int = 2,
    order_capacity: int = 100_000,
) -> SanitizeReport:
    """Run *app* ``runs`` times under one seed and diff the schedules."""
    if runs < 2:
        raise ValueError(f"need at least 2 runs to compare, got {runs}")
    from repro.obs.instrument import Observability
    from repro.parallel.executor import CellSpec, run_cell

    spec = CellSpec(app=app, n_processors=n_processors, scale=scale, seed=seed)
    report = SanitizeReport(
        app=app.upper(), n_processors=n_processors, scale=scale, seed=seed
    )
    sinks: list[DeterminismSink] = []
    for _ in range(runs):
        sink = DeterminismSink(order_capacity=order_capacity)
        result = run_cell(spec, obs=Observability(extra_sinks=[sink]))
        sinks.append(sink)
        report.digests.append(
            RunDigest(
                schedule_hash=sink.schedule_hash,
                events_processed=sink.events_processed,
                ct_ns=result.ct_ns,
                ambiguity_count=sink.ambiguity_count,
            )
        )
    report.ambiguity_samples = list(sinks[0].ambiguities[:16])
    if not report.deterministic:
        index = sinks[0].first_divergence(sinks[1])
        report.divergence_index = index
        if index is not None:
            token0 = sinks[0].order[index] if index < len(sinks[0].order) else "<end>"
            token1 = sinks[1].order[index] if index < len(sinks[1].order) else "<end>"
            report.divergence_tokens = (token0, token1)
    return report
