#!/usr/bin/env python
"""Kernel/model speed benchmark: events per second and cell wall time.

Measures three layers (the same layers the fast-path work targets):

1. **Kernel microbenchmarks** -- pure event-loop workloads (a timeout
   chain, a process fan-out, an any-of race with abandoned waits) whose
   event counts are known analytically, so ``events/sec`` is exact.
2. **Contention cells** -- barrier-heavy (many short spread loops) and
   pickup-heavy (high-P small-chunk XDOALL) full-stack workloads that
   stress the runtime's arbitrated pickup and finish-barrier locks.
   Each cell is timed in the default configuration.
3. **Cold sweep cells** -- ``run_cell`` wall time for FLO52/OCEAN at
   P=8 and P=32 (no cache), the end-to-end quantity users feel.  The
   timed run is sink-free, and ``loop_wall_s`` is the event-loop time
   of the same min-wall repeat, so it never exceeds ``wall_s``; the
   schedule hash is recorded from a separate sink-on run of the same
   program, whose ``ct_ns`` must match the timed run's.

Contention and sweep cells are timed as the minimum over ``REPEATS``
runs after one untimed warm-up (the microbenchmark idiom): the minimum
of repeated identical runs estimates the noise floor, and the warm-up
keeps lazy imports and allocator growth out of the first sample.  The
cyclic collector is paused for each timed window (the pyperf idiom)
and the debt collected between windows.

Raw wall time is not portable across machines, so every figure is also
reported normalised by a pure-Python calibration loop timed in the same
batch (the ``benchmarks/test_obs_overhead.py`` idiom):
``events_per_cal = events / (wall_s / calibration_s)`` is the number of
events processed per *calibration second* and compares across hosts.

Usage::

    PYTHONPATH=src python scripts/bench_kernel.py [--quick]
        [--output BENCH_kernel.json] [--baseline FILE] [--check FILE]

``--baseline FILE`` embeds FILE's ``current`` section as the baseline
and reports speed-up ratios, for one-off comparisons; the committed
``BENCH_kernel.json`` carries none.  ``--check FILE`` is the CI regression
gate: exit non-zero if the current normalised micro events/sec fall
more than ``MAX_REGRESSION`` below FILE's committed value.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import statistics
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.core.runner import run_phases  # noqa: E402
from repro.parallel.executor import CellSpec, run_cell  # noqa: E402
from repro.runtime.loops import LoopConstruct, ParallelLoop  # noqa: E402
from repro.sim import Simulator  # noqa: E402

# v1 -> v2: sweep cells split timed (sink-free) from hashed (exact
# sink-on) runs and grew fastpath-off baselines; new "contention"
# section with barrier-heavy / pickup-heavy cells.  v2 -> v3: the
# fastpath-off baselines and the per-cell ``fastpath_modes`` went with
# the only switchable fast path.
SCHEMA = "cedar-repro/bench-kernel/v3"

#: CI gate: fail when normalised micro events/sec drop below
#: ``(1 - MAX_REGRESSION)`` of the committed figure.
MAX_REGRESSION = 0.20

#: Repetitions per microbenchmark; the *minimum* wall time is reported
#: (the run least perturbed by scheduler noise -- the standard
#: microbenchmark practice), with the median calibration as yardstick.
REPEATS = 5
REPEATS_QUICK = 3

#: Contention/sweep cells repeat more: one run is only tens of
#: milliseconds, so extra draws are cheap, and the minimum needs more
#: samples to dodge preemption windows on a time-shared host.
REPEATS_CELLS = 9
REPEATS_CELLS_QUICK = 3


@contextmanager
def _gc_paused():
    """Cyclic collector paused for a timed window (the pyperf idiom).

    A GC pass landing mid-run adds milliseconds of pure noise to a
    tens-of-milliseconds figure; the debt is collected on exit, outside
    the timed region.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
        gc.collect()


def _calibration_s() -> float:
    """Pure-Python reference loop (the machine-speed yardstick)."""
    begin = perf_counter()
    total = 0
    for i in range(6_000_000):
        total += i & 7
    return perf_counter() - begin


def _calibration_median_s(samples: int = 5) -> float:
    """Median of several calibration samples (one sample wobbles ~10%
    on a loaded host, and every normalised figure scales with it)."""
    return statistics.median(_calibration_s() for _ in range(samples))


# -- kernel microbenchmarks -------------------------------------------------


def _bench_chain(iterations: int) -> tuple[int, float]:
    """One process yielding a chain of timeouts.

    Events: 1 Initialize + ``iterations`` timeouts + 1 process end.
    """
    sim = Simulator()

    def chain():
        for _ in range(iterations):
            yield 1

    sim.process(chain())
    begin = perf_counter()
    sim.run()
    return iterations + 2, perf_counter() - begin


def _bench_fanout(n_processes: int, iterations: int) -> tuple[int, float]:
    """Many concurrent processes, each a short timeout chain."""
    sim = Simulator()

    def worker(start: int):
        yield sim.timeout(start)
        for _ in range(iterations):
            yield 3

    for start in range(n_processes):
        sim.process(worker(start))
    begin = perf_counter()
    sim.run()
    return n_processes * (iterations + 3), perf_counter() - begin


def _bench_anyof(iterations: int) -> tuple[int, float]:
    """An any-of race each iteration; the losing timeout is abandoned.

    Events per iteration: the two timeouts plus the condition event.
    """
    sim = Simulator()

    def racer():
        for _ in range(iterations):
            yield sim.timeout(1) | sim.timeout(2)

    sim.process(racer())
    begin = perf_counter()
    sim.run()
    return 3 * iterations + 2, perf_counter() - begin


def run_micro(quick: bool) -> dict:
    scale = 1 if not quick else 4
    cases = {
        "chain": lambda: _bench_chain(200_000 // scale),
        "fanout": lambda: _bench_fanout(400 // scale, 400 // scale),
        "anyof": lambda: _bench_anyof(60_000 // scale),
    }
    repeats = REPEATS_QUICK if quick else REPEATS
    out: dict = {}
    total_events = 0
    total_wall = 0.0
    cals: list[float] = []
    for name, bench in cases.items():
        bench()  # warm-up: bytecode caches, allocator arenas, branch history
        walls = []
        events = 0
        with _gc_paused():
            for _ in range(repeats):
                cals.append(_calibration_s())
                events, wall = bench()
                walls.append(wall)
        wall = min(walls)
        cal = statistics.median(cals)
        out[name] = {
            "events": events,
            "wall_s": round(wall, 4),
            "events_per_s": round(events / wall, 1),
            "events_per_cal": round(events / (wall / cal), 1),
        }
        total_events += events
        total_wall += wall
    cal = statistics.median(cals)
    out["total"] = {
        "events": total_events,
        "wall_s": round(total_wall, 4),
        "events_per_s": round(total_events / total_wall, 1),
        "events_per_cal": round(total_events / (total_wall / cal), 1),
    }
    return out


# -- contention cells (runtime-layer locks) ----------------------------------


def _barrier_heavy_phases(quick: bool) -> list:
    """Many short skewed spread loops: finish-barrier traffic dominates."""
    n_loops = 12 if quick else 40
    return [
        ParallelLoop(
            construct=LoopConstruct.SDOALL,
            n_outer=16,
            n_inner=2,
            work_ns_per_iter=300,
            work_skew=0.3,
            label=f"bar{i}",
        )
        for i in range(n_loops)
    ]


def _pickup_heavy_phases(quick: bool) -> list:
    """High-P small-chunk XDOALLs: the test&set pickup queue dominates."""
    n_loops = 4 if quick else 10
    return [
        ParallelLoop(
            construct=LoopConstruct.XDOALL,
            n_inner=600,
            work_ns_per_iter=80,
            label=f"pick{i}",
        )
        for i in range(n_loops)
    ]


def run_contention(quick: bool) -> dict:
    """Time the barrier/pickup-heavy cells."""
    cases = {
        "barrier_heavy_P32": _barrier_heavy_phases(quick),
        "pickup_heavy_P32": _pickup_heavy_phases(quick),
    }
    out = {}
    repeats = REPEATS_CELLS_QUICK if quick else REPEATS_CELLS
    for name, phases in cases.items():
        cal = _calibration_median_s()
        run_phases(list(phases), 32)  # warm-up
        wall = float("inf")
        with _gc_paused():
            for _ in range(repeats):
                begin = perf_counter()
                result = run_phases(list(phases), 32)
                wall = min(wall, perf_counter() - begin)
        out[name] = {
            "ct_ns": result.ct_ns,
            "wall_s": round(wall, 4),
            "wall_over_cal": round(wall / cal, 3),
        }
    return out


# -- cold sweep cells --------------------------------------------------------


def run_cells(quick: bool) -> dict:
    points = [("FLO52", 8), ("OCEAN", 8)]
    if not quick:
        points += [("FLO52", 32), ("OCEAN", 32)]
    scale = 0.01 if quick else 0.02
    out = {}
    for app, n_processors in points:
        cal = _calibration_median_s()
        # Timed run: sink-free -- the configuration sweeps actually
        # run in.
        timed_spec = CellSpec(
            app=app, n_processors=n_processors, scale=scale, seed=1994
        )
        run_cell(timed_spec)  # warm-up: lazy imports, allocator, caches
        repeats = REPEATS_CELLS_QUICK if quick else REPEATS_CELLS
        wall = loop_wall = float("inf")
        with _gc_paused():
            for _ in range(repeats):
                begin = perf_counter()
                result = run_cell(timed_spec)
                elapsed = perf_counter() - begin
                if elapsed < wall:
                    # The loop time of the min-wall repeat, so that
                    # loop_wall_s <= wall_s.
                    wall, loop_wall = elapsed, result.wall_s
        # Hash run: the determinism sink attached to the same program,
        # so the recorded hash is that of the timed run.
        hash_spec = replace(timed_spec, fingerprint_schedule=True)
        hashed = run_cell(hash_spec)
        if hashed.ct_ns != result.ct_ns:
            raise RuntimeError(
                f"{app} P{n_processors}: sink-free ct_ns {result.ct_ns} != "
                f"sink-on ct_ns {hashed.ct_ns}"
            )
        out[f"{app}_P{n_processors}"] = {
            "scale": scale,
            "wall_s": round(wall, 4),
            "loop_wall_s": round(loop_wall, 4),
            "wall_over_cal": round(wall / cal, 3),
            "ct_ns": result.ct_ns,
            "schedule_hash": hashed.schedule_hash,
        }
    return out


# -- assembly ----------------------------------------------------------------


def run_all(quick: bool) -> dict:
    return {
        "schema": SCHEMA,
        "quick": quick,
        "host": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
        },
        "micro": run_micro(quick),
        "contention": run_contention(quick),
        "cells": run_cells(quick),
    }


def _ratios(current: dict, baseline: dict) -> dict:
    """Speed-up ratios (>1 means the current tree is faster)."""
    ratios = {}
    try:
        ratios["micro_events_per_cal"] = round(
            current["micro"]["total"]["events_per_cal"]
            / baseline["micro"]["total"]["events_per_cal"],
            2,
        )
    except (KeyError, ZeroDivisionError):
        pass
    # The timeout chain is the pure kernel hot path (pop/send/push with
    # no condition machinery) -- the figure the >=3x kernel target is
    # stated against.
    try:
        ratios["micro_hot_events_per_cal"] = round(
            current["micro"]["chain"]["events_per_cal"]
            / baseline["micro"]["chain"]["events_per_cal"],
            2,
        )
    except (KeyError, ZeroDivisionError):
        pass
    for cell, figures in current.get("cells", {}).items():
        base = baseline.get("cells", {}).get(cell)
        if base and figures.get("wall_over_cal"):
            ratios[f"cell_{cell}_wall"] = round(
                base["wall_over_cal"] / figures["wall_over_cal"], 2
            )
    for cell, figures in current.get("contention", {}).items():
        base = baseline.get("contention", {}).get(cell)
        if base and figures.get("wall_over_cal"):
            ratios[f"contention_{cell}_wall"] = round(
                base["wall_over_cal"] / figures["wall_over_cal"], 2
            )
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
        help=f"regression gate: fail on >{MAX_REGRESSION:.0%}% normalised "
        "micro events/sec drop versus FILE",
    )
    args = parser.parse_args()

    report = {"current": run_all(args.quick)}
    if args.baseline is not None:
        recorded = json.loads(args.baseline.read_text())
        baseline = recorded.get("current", recorded.get("baseline", recorded))
        report["baseline"] = baseline
        report["ratios"] = _ratios(report["current"], baseline)

    micro = report["current"]["micro"]["total"]
    print(
        f"micro: {micro['events']} events in {micro['wall_s']}s "
        f"({micro['events_per_s']:.0f}/s, {micro['events_per_cal']:.0f}/cal-s)"
    )
    for cell, figures in report["current"].get("contention", {}).items():
        print(
            f"contention {cell}: {figures['wall_s']}s "
            f"(x{figures['wall_over_cal']} cal)"
        )
    for cell, figures in report["current"]["cells"].items():
        print(f"cell {cell}: {figures['wall_s']}s (x{figures['wall_over_cal']} cal)")
    for name, value in report.get("ratios", {}).items():
        print(f"ratio {name}: {value}x")

    status = 0
    if args.check is not None:
        committed = json.loads(args.check.read_text())
        reference = committed["current"]["micro"]["total"]["events_per_cal"]
        measured = micro["events_per_cal"]
        floor = reference * (1.0 - MAX_REGRESSION)
        verdict = "ok" if measured >= floor else "REGRESSION"
        print(
            f"gate: measured {measured:.0f} events/cal-s vs committed "
            f"{reference:.0f} (floor {floor:.0f}): {verdict}"
        )
        if measured < floor:
            status = 1

    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.output}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
