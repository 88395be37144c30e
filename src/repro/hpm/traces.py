"""Trace-buffer off-loading: persistence and summaries.

On the real system the cedarhpm trace buffers were off-loaded to a Sun
workstation for analysis after each run (Section 4); this module is the
equivalent: event traces can be written to and read back from a simple
JSON-lines format, and summarised for quick inspection.

A trace file may begin with a self-describing header line of the form
``{"meta": {...}}`` carrying run provenance (machine configuration,
seed, application); :func:`load_trace` skips it and
:func:`load_trace_meta` retrieves it.
"""

from __future__ import annotations

import json
from collections import Counter
from collections.abc import Sequence
from pathlib import Path

from repro.hpm.events import EventType, TraceEvent

__all__ = ["save_trace", "load_trace", "load_trace_meta", "trace_summary"]


def _to_record(event: TraceEvent) -> dict:
    payload = event.payload
    if isinstance(payload, tuple):
        payload = list(payload)
    return {
        "e": int(event.event_type),
        "t": event.timestamp_ns,
        "p": event.processor_id,
        "k": event.task_id,
        "d": payload,
    }


def _from_record(record: dict) -> TraceEvent:
    payload = record.get("d")
    if isinstance(payload, list):
        payload = tuple(payload)
    return TraceEvent(
        EventType(record["e"]),
        record["t"],
        record["p"],
        record.get("k", -1),
        payload,
    )


def save_trace(
    events: Sequence[TraceEvent], path: str | Path, header: dict | None = None
) -> int:
    """Write events to *path* as JSON lines; returns the event count.

    When *header* is given it is written first, wrapped as
    ``{"meta": header}``, so the file records where its events came
    from (machine configuration, seed, application).
    """
    path = Path(path)
    with path.open("w") as f:
        if header is not None:
            f.write(json.dumps({"meta": header}, separators=(",", ":")))
            f.write("\n")
        for event in events:
            f.write(json.dumps(_to_record(event), separators=(",", ":")))
            f.write("\n")
    return len(events)


def load_trace(path: str | Path) -> list[TraceEvent]:
    """Read events back from a file written by :func:`save_trace`.

    A leading ``{"meta": ...}`` header line, if present, is skipped;
    use :func:`load_trace_meta` to read it.
    """
    events = []
    with Path(path).open() as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if "meta" in record:
                continue
            events.append(_from_record(record))
    return events


def load_trace_meta(path: str | Path) -> dict | None:
    """The ``{"meta": ...}`` header of a trace file, or ``None``."""
    with Path(path).open() as f:
        for line in f:
            line = line.strip()
            if line:
                record = json.loads(line)
                return record.get("meta")
    return None


def trace_summary(events: Sequence[TraceEvent]) -> dict:
    """Quick-look statistics of a trace buffer.

    Returns a dict with the event count, the time span, per-event-type
    counts and per-processor counts.
    """
    if not events:
        return {"events": 0, "span_ns": 0, "by_type": {}, "by_processor": {}}
    by_type = Counter(e.event_type.name for e in events)
    by_processor = Counter(e.processor_id for e in events)
    return {
        "events": len(events),
        "span_ns": events[-1].timestamp_ns - events[0].timestamp_ns,
        "by_type": dict(by_type),
        "by_processor": dict(by_processor),
    }
