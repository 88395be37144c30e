"""Dependency-free metrics registry for the simulator itself.

The rest of the reproduction measures the *modelled machine*; this
module measures the *model*.  Components register metrics under
hierarchical dotted names (``network.cluster0.streaming_ces.high_water``,
``memory.cluster0.stall_ns``, ``xylem.pagefault.count``) so a whole run
can be snapshotted into one flat, JSON-serialisable dictionary and
diffed across runs -- the gem5-style statistics artifact.

Four metric kinds cover everything the stack needs:

* :class:`Counter` -- monotonically increasing count or total;
* :class:`Gauge` -- last-written value, with high/low water marks;
* :class:`Histogram` -- fixed-boundary bucket counts plus sum/min/max;
* :class:`Timeseries` -- ``(time, value)`` samples with bounded memory
  (the stride doubles when the buffer fills, keeping a uniform
  subsample).

All operations are a few dict/list operations; no locks, no I/O, no
third-party dependencies.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterable, Iterator, Mapping
from typing import TypeVar, cast

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Timeseries",
    "MetricsRegistry",
    "validate_name",
]

#: Dotted hierarchical names: lowercase segments of [a-z0-9_] separated
#: by single dots, e.g. ``memory.cluster0.busy_ns``.
_NAME_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)*$")


def validate_name(name: str) -> str:
    """Validate a hierarchical metric name; returns it unchanged."""
    if not _NAME_RE.match(name):
        raise ValueError(
            f"invalid metric name {name!r}: use dotted lowercase segments "
            "like 'memory.cluster0.stall_ns'"
        )
    return name


class Counter:
    """A monotonically increasing counter (count or accumulated total)."""

    __slots__ = ("name", "value")

    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: int | float = 0

    def inc(self, amount: int | float = 1) -> None:
        """Add *amount* (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (got {amount})")
        self.value += amount

    def merge(self, snapshot: Mapping[str, object]) -> None:
        """Fold another counter's :meth:`snapshot` into this one (sum)."""
        self.inc(cast("int | float", snapshot["value"]))

    def snapshot(self) -> dict:
        """JSON-serialisable state."""
        return {"kind": self.kind, "value": self.value}


class Gauge:
    """A last-value metric with high- and low-water marks."""

    __slots__ = ("name", "value", "high_water", "low_water", "_written")

    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: int | float = 0
        self.high_water: int | float = 0
        self.low_water: int | float = 0
        self._written = False

    def set(self, value: int | float) -> None:
        """Record the gauge's current value."""
        self.value = value
        if not self._written:
            self.high_water = self.low_water = value
            self._written = True
        else:
            if value > self.high_water:
                self.high_water = value
            if value < self.low_water:
                self.low_water = value

    def merge(self, snapshot: Mapping[str, object]) -> None:
        """Fold another gauge's :meth:`snapshot` into this one.

        The merged gauge keeps the *last* value written and the extreme
        high/low water marks across both recordings.
        """
        self.set(cast("int | float", snapshot["high_water"]))
        self.set(cast("int | float", snapshot["low_water"]))
        self.set(cast("int | float", snapshot["value"]))

    def snapshot(self) -> dict:
        """JSON-serialisable state."""
        return {
            "kind": self.kind,
            "value": self.value,
            "high_water": self.high_water,
            "low_water": self.low_water,
        }


class Histogram:
    """Fixed-boundary histogram: counts per bucket plus sum/min/max.

    ``boundaries`` are the inclusive upper edges of the finite buckets;
    one implicit overflow bucket catches everything larger.
    """

    __slots__ = ("name", "boundaries", "counts", "count", "total", "min", "max")

    kind = "histogram"

    def __init__(self, name: str, boundaries: Iterable[float]) -> None:
        edges = sorted(float(b) for b in boundaries)
        if not edges:
            raise ValueError(f"histogram {name} needs at least one bucket boundary")
        self.name = name
        self.boundaries = edges
        self.counts = [0] * (len(edges) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        """Record one observation."""
        lo, hi = 0, len(self.boundaries)
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= self.boundaries[mid]:
                hi = mid
            else:
                lo = mid + 1
        self.counts[lo] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """Mean of the observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def merge(self, snapshot: Mapping[str, object]) -> None:
        """Fold another histogram's :meth:`snapshot` into this one.

        The snapshot must carry identical bucket boundaries -- merged
        histograms are only meaningful bucket-for-bucket.
        """
        boundaries = [float(b) for b in cast("list[float]", snapshot["boundaries"])]
        if boundaries != self.boundaries:
            raise ValueError(
                f"histogram {self.name}: cannot merge boundaries "
                f"{boundaries} into {self.boundaries}"
            )
        counts = cast("list[int]", snapshot["counts"])
        for i, count in enumerate(counts):
            self.counts[i] += count
        merged = cast(int, snapshot["count"])
        self.count += merged
        self.total += cast(float, snapshot["total"])
        if merged:
            low = cast(float, snapshot["min"])
            high = cast(float, snapshot["max"])
            if low < self.min:
                self.min = low
            if high > self.max:
                self.max = high

    def quantile(self, q: float) -> float | None:
        """Approximate *q*-quantile (0..1) from the bucket counts.

        Returns the upper edge of the bucket holding the quantile rank
        (``max`` for the overflow bucket), or ``None`` when empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return None
        rank = q * self.count
        seen = 0
        for i, count in enumerate(self.counts):
            seen += count
            if seen >= rank and count:
                if i < len(self.boundaries):
                    return self.boundaries[i]
                return self.max
        return self.max

    def snapshot(self) -> dict:
        """JSON-serialisable state."""
        return {
            "kind": self.kind,
            "boundaries": self.boundaries,
            "counts": list(self.counts),
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }


class Timeseries:
    """Bounded ``(time, value)`` sampler.

    When the buffer reaches *max_samples* every other retained sample
    is dropped and the acceptance stride doubles, so memory stays
    bounded while the kept samples remain uniformly spaced in arrival
    order.
    """

    __slots__ = ("name", "max_samples", "samples", "_stride", "_pending")

    kind = "timeseries"

    def __init__(self, name: str, max_samples: int = 1024) -> None:
        if max_samples < 2:
            raise ValueError(f"max_samples must be >= 2, got {max_samples}")
        self.name = name
        self.max_samples = max_samples
        self.samples: list[tuple[int | float, int | float]] = []
        self._stride = 1
        self._pending = 0

    def sample(self, time: int | float, value: int | float) -> None:
        """Record one sample (decimated once the buffer is full)."""
        self._pending += 1
        if self._pending < self._stride:
            return
        self._pending = 0
        self.samples.append((time, value))
        if len(self.samples) >= self.max_samples:
            self.samples = self.samples[::2]
            self._stride *= 2

    def snapshot(self) -> dict:
        """JSON-serialisable state."""
        return {
            "kind": self.kind,
            "stride": self._stride,
            "samples": [list(s) for s in self.samples],
        }


_M = TypeVar("_M", Counter, Gauge, Histogram, Timeseries)


class MetricsRegistry:
    """Hierarchically-named registry of metrics.

    Accessors are get-or-create and idempotent: asking twice for the
    same name returns the same object; asking for an existing name with
    a different kind raises.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram | Timeseries] = {}

    def _get_or_create(self, name: str, factory: Callable[[str], _M], kind: str) -> _M:
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory(validate_name(name))
            self._metrics[name] = metric
        elif metric.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {metric.kind}, not {kind}"
            )
        return cast(_M, metric)

    def counter(self, name: str) -> Counter:
        """Get or create a :class:`Counter`."""
        return self._get_or_create(name, Counter, "counter")

    def gauge(self, name: str) -> Gauge:
        """Get or create a :class:`Gauge`."""
        return self._get_or_create(name, Gauge, "gauge")

    def histogram(self, name: str, boundaries: Iterable[float]) -> Histogram:
        """Get or create a :class:`Histogram` with *boundaries*."""
        return self._get_or_create(
            name, lambda n: Histogram(n, boundaries), "histogram"
        )

    def timeseries(self, name: str, max_samples: int = 1024) -> Timeseries:
        """Get or create a :class:`Timeseries`."""
        return self._get_or_create(
            name, lambda n: Timeseries(n, max_samples), "timeseries"
        )

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._metrics))

    def get(self, name: str) -> Counter | Gauge | Histogram | Timeseries | None:
        """The metric registered under *name*, or ``None``."""
        return self._metrics.get(name)

    def names(self, prefix: str = "") -> list[str]:
        """Sorted metric names, optionally restricted to a dotted prefix."""
        if not prefix:
            return sorted(self._metrics)
        dotted = prefix if prefix.endswith(".") else prefix + "."
        return sorted(n for n in self._metrics if n == prefix or n.startswith(dotted))

    def value(self, name: str) -> int | float:
        """Shortcut for the scalar value of a counter/gauge."""
        metric = self._metrics[name]
        if not isinstance(metric, (Counter, Gauge)):
            raise TypeError(f"metric {name!r} is a {metric.kind}, not a scalar")
        return metric.value

    def snapshot(self) -> dict[str, dict]:
        """All metrics as one flat, JSON-serialisable dict (sorted)."""
        return {name: self._metrics[name].snapshot() for name in sorted(self._metrics)}

    def merge_snapshot(
        self, snapshot: Mapping[str, Mapping[str, object]], prefix: str = ""
    ) -> None:
        """Fold a whole :meth:`snapshot` into this registry.

        The cross-process seam: a worker ships its registry's snapshot
        (plain dicts pickle cheaply; live metric objects never cross the
        pool boundary) and the coordinator merges it here, optionally
        under a dotted *prefix* namespace.  Counters sum, gauges keep
        last value + extreme water marks, histograms add bucket-for-
        bucket.  Timeseries are skipped: their time bases are per-worker
        host clocks and do not compose.
        """
        for name, snap in snapshot.items():
            kind = snap["kind"]
            full = f"{prefix}.{name}" if prefix else name
            if kind == "counter":
                self.counter(full).merge(snap)
            elif kind == "gauge":
                self.gauge(full).merge(snap)
            elif kind == "histogram":
                boundaries = cast("list[float]", snap["boundaries"])
                self.histogram(full, boundaries).merge(snap)
