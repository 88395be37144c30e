"""Compare two ``bench/run.py`` results files, per metric and workload.

Usage::

    python bench/compare.py A.json B.json

A is the base (the parent commit), B the change; both must come from the
same benchmark code and settings.  For every end-to-end metric of
``BENCHMARK.json`` and every workload in both files, the command prints
each side's median and quartiles and one verdict:

* ``unresolved`` -- either side's spread, ``(q3 - q1) / median``, is
  wider than the metric's bound and the runs do not fully separate
  (every B sample better, or every B sample worse, than every A sample);
* ``better`` -- B's samples beat A's in at least nine tenths of the pairs
  (ties count for neither) and the medians differ by more than A's own
  spread ``q3 - q1``;
* ``worse`` -- B's median is worse than A's by more than the bound;
* ``same`` -- otherwise.

``failed_frac`` and the accuracy metrics are deterministic or 0 when all
is well, so their bound is 0 absolute: any rise is worse, any fall is
better.  Exit status 1 when any verdict is ``worse``, else 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import EXTRA_END_TO_END, SPEC_FILE


def verdict(a: dict, b: dict, bound: float, lower_is_better: bool) -> str:
    """The verdict on one (metric, workload) pair; *a*, *b* as in results JSON."""
    sign = 1.0 if lower_is_better else -1.0

    def beats(x: float, y: float) -> bool:
        """Whether *x* is better than *y*."""
        return sign * (x - y) < 0

    base, change = a["samples"], b["samples"]
    all_better = all(beats(y, x) for x in base for y in change)
    all_worse = all(beats(x, y) for x in base for y in change)
    spread = max(
        ((s["q3"] - s["q1"]) / s["median"] for s in (a, b) if s["median"]), default=0.0
    )
    if spread > bound and not (all_better or all_worse):
        return "unresolved"
    pairs = list(zip(base, change))
    wins = sum(1 for x, y in pairs if beats(y, x))
    if wins >= 0.9 * len(pairs) and abs(b["median"] - a["median"]) > a["q3"] - a["q1"]:
        return "better"
    if sign * (b["median"] - a["median"]) > bound * a["median"]:
        return "worse"
    return "same"


def exact_verdict(a: dict, b: dict) -> str:
    """Bound 0 absolute, lower is better."""
    if b["median"] == a["median"]:
        return "same"
    return "better" if b["median"] < a["median"] else "worse"


def compare(a: dict, b: dict, spec: dict) -> list[tuple[str, str, dict, dict, str]]:
    """``(workload, metric, A, B, verdict)`` rows for every shared pair."""
    rows = []
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        ea = a["workloads"][workload]["end_to_end"]
        eb = b["workloads"][workload]["end_to_end"]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name in ea and name in eb:
                rows.append(
                    (workload, name, ea[name], eb[name],
                     verdict(ea[name], eb[name], metric["bound"], metric["better"] == "lower"))
                )
        for name in EXTRA_END_TO_END:
            if name in ea and name in eb:
                rows.append((workload, name, ea[name], eb[name], exact_verdict(ea[name], eb[name])))
    return rows


def _side(s: dict) -> str:
    return f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}] n={s['n']}"


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python bench/compare.py A.json B.json", file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    rows = compare(a, b, json.loads(SPEC_FILE.read_text()))
    print(f"{'workload':<20} {'metric':<18} {'A median [q1, q3]':<34} {'B median [q1, q3]':<34} verdict")
    for workload, name, sa, sb, result in rows:
        print(f"{workload:<20} {name:<18} {_side(sa):<34} {_side(sb):<34} {result}")
    counts = {v: sum(1 for row in rows if row[4] == v) for v in ("better", "same", "worse", "unresolved")}
    print(", ".join(f"{n} {v}" for v, n in counts.items()))
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
