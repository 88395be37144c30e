#!/usr/bin/env python
"""Kernel/model speed benchmark: events per second and cell wall time.

Measures three layers (the same layers the fast-path work targets):

1. **Kernel microbenchmarks** -- pure event-loop workloads (a timeout
   chain, a process fan-out, an any-of race with abandoned waits) whose
   event counts are known analytically, so ``events/sec`` is exact.
2. **Contention cells** -- barrier-heavy (many short spread loops) and
   pickup-heavy (high-P small-chunk XDOALL) full-stack workloads that
   stress the runtime's arbitrated pickup and finish-barrier locks.
   Each cell is timed with the fast path hot *and* with
   ``CEDAR_REPRO_FASTPATH=off``, and the two completion times must be
   identical -- the bench doubles as an end-to-end exactness check.
3. **Cold sweep cells** -- ``run_cell`` wall time for FLO52/OCEAN at
   P=8 and P=32 (no cache), the end-to-end quantity users feel.  The
   timed run is sink-free (every fast path hot), and ``loop_wall_s`` is
   the event-loop time of the same min-wall repeat, so it never exceeds
   ``wall_s``; the schedule hash is recorded from a separate sink-on
   run of the same armed program, whose ``ct_ns`` and
   ``fastpath_modes`` must match the timed run's.

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
    PYTHONPATH=src python scripts/bench_kernel.py --ablate [--output FILE]

``--ablate`` measures only each remaining fast-path layer's marginal
win: the 25 paper cells at scale 0.02, in ``ABLATE_ROUNDS`` interleaved
rounds of one sweep with the default policy and one with that layer
forced exact.  It reports each sweep's summed event-loop wall
(``RunResult.wall_s``) and refuses (exit 1) unless both policies give
the same combined :func:`~repro.analyze.race.fingerprint_result` digest.

``--baseline FILE`` embeds FILE's ``current`` section as the baseline
and reports speed-up ratios, for one-off comparisons; the committed
``BENCH_kernel.json`` carries none, because each cell's
``fastpath_speedup`` is already the like-for-like ratio (same cell,
same ``ct_ns``, every fast path off).  ``--check FILE`` is the CI regression
gate: exit non-zero if the current normalised micro events/sec fall
more than ``MAX_REGRESSION`` below FILE's committed value.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
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
# section with barrier-heavy / pickup-heavy cells.
SCHEMA = "cedar-repro/bench-kernel/v2"

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

#: Interleaved default/exact sweep pairs per ablated layer.
ABLATE_ROUNDS = 3


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


# -- contention cells (runtime-layer fast paths) -----------------------------


class _ExactMismatch(RuntimeError):
    """Fast-path and exact-path runs disagreed -- the bench refuses."""


@contextmanager
def _fastpaths_off():
    """Force the switchable fast path exact (the kill switch) for a block."""
    saved = os.environ.get("CEDAR_REPRO_FASTPATH")
    os.environ["CEDAR_REPRO_FASTPATH"] = "off"
    try:
        yield
    finally:
        if saved is None:
            del os.environ["CEDAR_REPRO_FASTPATH"]
        else:
            os.environ["CEDAR_REPRO_FASTPATH"] = saved


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
    """Time the barrier/pickup-heavy cells hot and exact; require equal CT."""
    cases = {
        "barrier_heavy_P32": _barrier_heavy_phases(quick),
        "pickup_heavy_P32": _pickup_heavy_phases(quick),
    }
    out = {}
    repeats = REPEATS_CELLS_QUICK if quick else REPEATS_CELLS
    for name, phases in cases.items():
        cal = _calibration_median_s()
        run_phases(list(phases), 32)  # warm-up
        wall_fast = float("inf")
        with _gc_paused():
            for _ in range(repeats):
                begin = perf_counter()
                fast = run_phases(list(phases), 32)
                wall_fast = min(wall_fast, perf_counter() - begin)
        with _fastpaths_off():
            run_phases(list(phases), 32)  # warm-up on the exact paths too
            wall_exact = float("inf")
            with _gc_paused():
                for _ in range(repeats):
                    begin = perf_counter()
                    exact = run_phases(list(phases), 32)
                    wall_exact = min(wall_exact, perf_counter() - begin)
        if fast.ct_ns != exact.ct_ns:
            raise _ExactMismatch(
                f"{name}: fast ct_ns {fast.ct_ns} != exact ct_ns {exact.ct_ns}"
            )
        out[name] = {
            "ct_ns": fast.ct_ns,
            "wall_s": round(wall_fast, 4),
            "wall_over_cal": round(wall_fast / cal, 3),
            "fastpath_off_wall_s": round(wall_exact, 4),
            "fastpath_speedup": round(wall_exact / wall_fast, 2),
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
        # Timed run: sink-free, every fast path hot -- the
        # configuration sweeps actually run in.
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
        # Hash run: the determinism sink attached to the same armed
        # program, so the recorded hash is that of the timed run.
        hash_spec = replace(timed_spec, fingerprint_schedule=True)
        hashed = run_cell(hash_spec)
        if hashed.ct_ns != result.ct_ns:
            raise _ExactMismatch(
                f"{app} P{n_processors}: sink-free ct_ns {result.ct_ns} != "
                f"sink-on ct_ns {hashed.ct_ns}"
            )
        if hashed.fastpath_modes != result.fastpath_modes:
            raise _ExactMismatch(
                f"{app} P{n_processors}: sink-free fastpath_modes "
                f"{result.fastpath_modes} != sink-on {hashed.fastpath_modes}"
            )
        # Baseline: the same sink-free cell with every fast path off.
        with _fastpaths_off():
            run_cell(timed_spec)  # warm-up on the exact paths too
            wall_off = float("inf")
            with _gc_paused():
                for _ in range(repeats):
                    begin = perf_counter()
                    off = run_cell(timed_spec)
                    wall_off = min(wall_off, perf_counter() - begin)
        if off.ct_ns != result.ct_ns:
            raise _ExactMismatch(
                f"{app} P{n_processors}: fastpath-off ct_ns {off.ct_ns} != "
                f"fastpath-on ct_ns {result.ct_ns}"
            )
        out[f"{app}_P{n_processors}"] = {
            "scale": scale,
            "wall_s": round(wall, 4),
            "loop_wall_s": round(loop_wall, 4),
            "wall_over_cal": round(wall / cal, 3),
            "fastpath_off_wall_s": round(wall_off, 4),
            "fastpath_speedup": round(wall_off / wall, 2),
            "ct_ns": result.ct_ns,
            "schedule_hash": hashed.schedule_hash,
            "fastpath_modes": dict(result.fastpath_modes),
        }
    return out


# -- per-layer ablation ------------------------------------------------------

#: How to force each remaining fast-path layer exact.  The kill switch
#: governs only the push-mode statfx sampler, so it is that layer's.
ABLATE_LAYERS = {"statfx": _fastpaths_off}


def _paper_sweep() -> tuple[float, str]:
    """Summed loop wall and combined fingerprint of the 25 paper cells."""
    from repro.analyze.race import fingerprint_result
    from repro.core.reference import APPS, CONFIGS

    loop_wall = 0.0
    digests = []
    with _gc_paused():
        for app in APPS:
            for n_processors in CONFIGS:
                result = run_cell(CellSpec(app, n_processors, scale=0.02, seed=1994))
                loop_wall += result.wall_s
                digests.append(fingerprint_result(result).digest)
    combined = hashlib.blake2b("".join(digests).encode(), digest_size=16).hexdigest()
    return loop_wall, combined


def run_ablation() -> dict:
    """Each layer's marginal win over the paper sweep, interleaved."""
    out = {}
    for layer, forced_exact in ABLATE_LAYERS.items():
        default_walls, exact_walls = [], []
        for _ in range(ABLATE_ROUNDS):
            wall, default_digest = _paper_sweep()
            default_walls.append(round(wall, 3))
            with forced_exact():
                wall, exact_digest = _paper_sweep()
            exact_walls.append(round(wall, 3))
            if exact_digest != default_digest:
                raise _ExactMismatch(f"{layer} forced exact changed the paper sweep's results")
        default_s = statistics.median(default_walls)
        exact_s = statistics.median(exact_walls)
        out[layer] = {
            "fingerprint": default_digest,
            "default_loop_wall_s": default_walls,
            "exact_loop_wall_s": exact_walls,
            "marginal_win": round(exact_s / default_s, 2),
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
    parser.add_argument(
        "--ablate",
        action="store_true",
        help="measure only each fast-path layer's marginal win over the paper sweep",
    )
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

    if args.ablate:
        try:
            ablation = run_ablation()
        except _ExactMismatch as mismatch:
            print(f"ablate: {mismatch}", file=sys.stderr)
            return 1
        for layer, figures in ablation.items():
            print(
                f"ablate {layer}: loop wall {figures['default_loop_wall_s']}s default / "
                f"{figures['exact_loop_wall_s']}s exact "
                f"(x{figures['marginal_win']} marginal win, same fingerprint)"
            )
        if args.output is not None:
            args.output.parent.mkdir(parents=True, exist_ok=True)
            args.output.write_text(json.dumps({"ablate": ablation}, indent=2) + "\n")
            print(f"wrote {args.output}")
        return 0

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
            f"contention {cell}: {figures['wall_s']}s hot / "
            f"{figures['fastpath_off_wall_s']}s exact "
            f"(x{figures['fastpath_speedup']} fast-path speedup)"
        )
    for cell, figures in report["current"]["cells"].items():
        print(
            f"cell {cell}: {figures['wall_s']}s (x{figures['wall_over_cal']} cal, "
            f"x{figures.get('fastpath_speedup', '?')} vs fastpaths off)"
        )
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
