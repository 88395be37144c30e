#!/usr/bin/env python
"""Sweep-throughput benchmark: campaign cells/sec, cold vs warm, by pool size.

Where ``bench_kernel.py`` measures the event kernel, this harness
measures the layer users actually drive: :func:`repro.parallel.executor.
execute_cells` running a small FLO52/OCEAN sweep behind the result
cache, with :class:`~repro.obs.campaign.CampaignTelemetry` attached --
so the committed figures also pin the telemetry-on path.

For each pool size the same four cells run twice against one fresh
cache directory:

* **cold** -- every cell simulated, results written to the cache;
* **warm** -- every cell answered from the cache (hit rate must be 1.0).

Raw wall time is not portable across machines, so every throughput is
also normalised by a pure-Python calibration loop timed in the same
batch (the ``bench_kernel.py`` idiom): ``cells_per_cal = cells /
(wall_s / calibration_s)`` compares across hosts.  Quick and full mode
use the *identical* per-cell workload (same apps, configs, scale, seed)
so the calibrated figure is comparable between CI and the committed
full run; full mode only adds a larger pool size and more repeats.

Pool-size scaling is recorded as a trajectory but **not** gated: it
depends on host core count (CI runners may have one core).  The
``--check`` gate holds the two figures that are robust to core count:

* cold ``cells_per_cal`` at jobs=1 within ``MAX_REGRESSION`` of the
  committed value (simulation + executor + telemetry speed);
* warm/cold speed-up at jobs=1 at least ``WARM_SPEEDUP_FLOOR``
  (the cache must stay much faster than simulating).

Usage::

    PYTHONPATH=src python scripts/bench_sweep.py [--quick]
        [--output BENCH_sweep.json] [--baseline FILE] [--check FILE]
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.analyze.race import fingerprint_result  # noqa: E402
from repro.obs.campaign import CampaignTelemetry  # noqa: E402
from repro.parallel.cache import ResultCache  # noqa: E402
from repro.parallel.executor import CellSpec, execute_cells  # noqa: E402

SCHEMA = "cedar-repro/bench-sweep/v1"

#: CI gate: fail when cold jobs=1 ``cells_per_cal`` drops below
#: ``(1 - MAX_REGRESSION)`` of the committed figure.
MAX_REGRESSION = 0.35

#: CI gate: warm (all-cache-hit) throughput must beat cold by at least
#: this factor at jobs=1, or the cache has stopped earning its keep.
WARM_SPEEDUP_FLOOR = 3.0

#: The fixed sweep: identical in quick and full mode so calibrated
#: throughput is comparable between CI and the committed baseline.
APPS = ("FLO52", "OCEAN")
CONFIGS = (1, 4)
SCALE = 0.004
SEED = 1994

POOL_SIZES_QUICK = (1, 2)
POOL_SIZES_FULL = (1, 2, 4)
REPEATS_QUICK = 1
REPEATS_FULL = 3


def _calibration_s() -> float:
    """Pure-Python reference loop (the machine-speed yardstick)."""
    begin = perf_counter()
    total = 0
    for i in range(6_000_000):
        total += i & 7
    return perf_counter() - begin


def _specs() -> list[CellSpec]:
    return [
        CellSpec(app=app, n_processors=p, scale=SCALE, seed=SEED)
        for app in APPS
        for p in CONFIGS
    ]


def _one_pass(specs: list[CellSpec], jobs: int, cache: ResultCache) -> dict:
    """Run the sweep once; return wall time, report figures and fingerprints."""
    telemetry = CampaignTelemetry(progress=False, label=f"bench jobs={jobs}")
    begin = perf_counter()
    results, failures = execute_cells(
        specs, jobs=jobs, cache=cache, retries=0, telemetry=telemetry
    )
    wall = perf_counter() - begin
    if failures:
        raise RuntimeError(f"benchmark sweep failed: {failures[0].message}")
    report = telemetry.report()
    fingerprints = {
        f"{spec.app}_P{spec.n_processors}": fingerprint_result(results[spec]).digest
        for spec in specs
    }
    return {
        "wall_s": wall,
        "report": report,
        "fingerprints": fingerprints,
        "cache_hits": report["cache"]["hits"],
    }


def _figures(passes: list[dict], n_cells: int, cal: float) -> dict:
    """Aggregate repeated passes: min wall (least-perturbed run) wins."""
    best = min(passes, key=lambda p: p["wall_s"])
    wall = best["wall_s"]
    report = best["report"]
    return {
        "cells": n_cells,
        "wall_s": round(wall, 4),
        "cells_per_s": round(n_cells / wall, 2),
        "cells_per_cal": round(n_cells / (wall / cal), 2),
        "p50_s": report["latency_s"]["p50"],
        "p95_s": report["latency_s"]["p95"],
        "utilization": report["pool"]["utilization"],
        "cache_hits": best["cache_hits"],
    }


def run_sweeps(quick: bool) -> dict:
    specs = _specs()
    pool_sizes = POOL_SIZES_QUICK if quick else POOL_SIZES_FULL
    repeats = REPEATS_QUICK if quick else REPEATS_FULL
    out: dict = {"cells_per_pass": len(specs)}
    reference: dict | None = None
    cals: list[float] = []
    for jobs in pool_sizes:
        cold_passes: list[dict] = []
        warm_passes: list[dict] = []
        for _ in range(repeats):
            with tempfile.TemporaryDirectory(prefix="bench-sweep-") as tmp:
                cache = ResultCache(tmp)
                cals.append(_calibration_s())
                cold = _one_pass(specs, jobs, cache)
                if cold["cache_hits"]:
                    raise RuntimeError("cold pass hit the cache")
                warm = _one_pass(specs, jobs, cache)
                if warm["cache_hits"] != len(specs):
                    raise RuntimeError(
                        f"warm pass missed the cache: "
                        f"{warm['cache_hits']}/{len(specs)} hits"
                    )
                if warm["fingerprints"] != cold["fingerprints"]:
                    raise RuntimeError("warm results diverge from cold")
                if reference is None:
                    reference = cold["fingerprints"]
                elif cold["fingerprints"] != reference:
                    raise RuntimeError(
                        f"jobs={jobs} results diverge from jobs="
                        f"{pool_sizes[0]}"
                    )
                cold_passes.append(cold)
                warm_passes.append(warm)
        cal = statistics.median(cals)
        cold_fig = _figures(cold_passes, len(specs), cal)
        warm_fig = _figures(warm_passes, len(specs), cal)
        out[f"jobs{jobs}"] = {
            "cold": cold_fig,
            "warm": warm_fig,
            "warm_speedup": round(
                warm_fig["cells_per_cal"] / cold_fig["cells_per_cal"], 2
            ),
        }
    out["result_fingerprints"] = reference
    return out


def run_all(quick: bool) -> dict:
    return {
        "schema": SCHEMA,
        "quick": quick,
        "host": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
        },
        "workload": {
            "apps": list(APPS),
            "configs": list(CONFIGS),
            "scale": SCALE,
            "seed": SEED,
        },
        "sweeps": run_sweeps(quick),
    }


def _ratios(current: dict, baseline: dict) -> dict:
    """Speed-up ratios (>1 means the current tree is faster)."""
    ratios = {}
    for key, cur in current.get("sweeps", {}).items():
        if not key.startswith("jobs"):
            continue
        base = baseline.get("sweeps", {}).get(key)
        if not base:
            continue
        for leg in ("cold", "warm"):
            try:
                ratios[f"{key}_{leg}_cells_per_cal"] = round(
                    cur[leg]["cells_per_cal"] / base[leg]["cells_per_cal"], 2
                )
            except (KeyError, TypeError, ZeroDivisionError):
                pass
    return ratios


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI-sized run")
    parser.add_argument("--output", type=Path, default=None, help="write JSON here")
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="embed FILE's 'current' section as the baseline and report ratios",
    )
    parser.add_argument(
        "--check",
        type=Path,
        default=None,
        help=f"regression gate: fail on >{MAX_REGRESSION:.0%} cold jobs=1 "
        f"throughput drop versus FILE, or warm speed-up "
        f"below {WARM_SPEEDUP_FLOOR:.0f}x",
    )
    args = parser.parse_args()

    report = {"current": run_all(args.quick)}
    if args.baseline is not None:
        recorded = json.loads(args.baseline.read_text())
        baseline = recorded.get("current", recorded.get("baseline", recorded))
        report["baseline"] = baseline
        report["ratios"] = _ratios(report["current"], baseline)

    sweeps = report["current"]["sweeps"]
    for key, figures in sweeps.items():
        if not key.startswith("jobs"):
            continue
        cold, warm = figures["cold"], figures["warm"]
        print(
            f"{key}: cold {cold['cells_per_s']:.2f} cells/s "
            f"(p95 {cold['p95_s']}s, {cold['cells_per_cal']:.2f}/cal-s), "
            f"warm {warm['cells_per_s']:.2f} cells/s "
            f"(x{figures['warm_speedup']} vs cold)"
        )
    for name, value in report.get("ratios", {}).items():
        print(f"ratio {name}: {value}x")

    status = 0
    if args.check is not None:
        committed = json.loads(args.check.read_text())
        reference = committed["current"]["sweeps"]["jobs1"]["cold"]["cells_per_cal"]
        measured = sweeps["jobs1"]["cold"]["cells_per_cal"]
        floor = reference * (1.0 - MAX_REGRESSION)
        verdict = "ok" if measured >= floor else "REGRESSION"
        print(
            f"gate: cold jobs=1 measured {measured:.2f} cells/cal-s vs "
            f"committed {reference:.2f} (floor {floor:.2f}): {verdict}"
        )
        if measured < floor:
            status = 1
        speedup = sweeps["jobs1"]["warm_speedup"]
        verdict = "ok" if speedup >= WARM_SPEEDUP_FLOOR else "REGRESSION"
        print(
            f"gate: warm speed-up x{speedup} vs floor "
            f"x{WARM_SPEEDUP_FLOOR:.0f}: {verdict}"
        )
        if speedup < WARM_SPEEDUP_FLOOR:
            status = 1

    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.output}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
