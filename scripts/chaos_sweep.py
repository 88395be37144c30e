#!/usr/bin/env python
"""Host-level chaos harness: crash a campaign on purpose, prove recovery.

Where ``parallel_smoke.py`` proves the happy path (pool + cache =
byte-identical tables), this harness proves the *unhappy* paths the
sweep executor recovers from (``docs/resilience.md``).  Four legs, one
fixed seeded grid, every leg through ``resilient_sweep``:

1. **reference** -- in-process (no pool, no cache); its Tables 1/3/4
   text is the byte-identity yardstick for everything below.
2. **clean durable** -- the same grid journaled on a pool
   (``checkpoint=...``, ``jobs=2``, no faults): tables must match, and
   its wall is the baseline for the overhead gate.
3. **chaos durable** -- the same grid under a seeded
   :class:`~repro.faults.host.HostChaosPlan` that SIGKILLs one worker
   after its cell simulates but before the result is returned, hangs
   another (caught by the cell deadline), and injects a slow-start
   straggler.  The campaign must complete by itself
   (deaths retried on a respawned pool, the hang killed and retried),
   the tables must match the reference, and the *recovery overhead* --
   wall minus everything the faults themselves destroyed (lost partial
   attempts, deterministic backoff, injected sleeps) -- must stay
   within ``MAX_RECOVERY_OVERHEAD_PCT`` of the clean wall.
4. **interrupt + corrupt + resume** -- a subprocess runs the campaign
   fresh and is SIGINTed mid-flight: it must exit 130 leaving a valid,
   checkpointed journal.  One completed cell's cache envelope is then
   truncated.  ``resume_sweep`` must finish the campaign re-running
   only what is missing (journal-completed cells come from the cache;
   the corrupted one is quarantined and re-simulated) and the tables
   must again match the reference byte-for-byte.

``--check`` turns the assertions into a CI gate; ``--output`` writes
``BENCH_resilience.json`` (with a pure-Python calibration figure so
numbers travel across hosts); ``--artifacts DIR`` keeps the journal,
chaos plan and recovery report for upload.

Usage::

    PYTHONPATH=src python scripts/chaos_sweep.py [--quick] [--check]
        [--output BENCH_resilience.json] [--artifacts DIR]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.core.experiments import table1, table3, table4  # noqa: E402
from repro.core.resilience import resilient_sweep, resume_sweep  # noqa: E402
from repro.faults.host import (  # noqa: E402
    HostChaosPlan,
    HostFault,
    corrupt_cache_entry,
    save_host_chaos,
)
from repro.parallel import (  # noqa: E402
    DurablePolicy,
    RecoveryLedger,
    ResultCache,
    load_journal,
    save_recovery_report,
)

SCHEMA = "cedar-repro/bench-resilience/v1"

#: CI gate: recovery machinery (journal fsyncs, pool respawns, health
#: polling) may cost at most this fraction of the clean pooled wall.
MAX_RECOVERY_OVERHEAD_PCT = 15.0

#: Secondary sanity gate: even *counting* all destroyed work and dwell,
#: the chaos run must not blow up unboundedly.
MAX_RAW_WALL_FACTOR = 6.0

SEED = 1994
#: Grids sized so the clean leg outlasts the fixed hang dwell (the cell
#: deadline) by a margin: the raw-wall gate compares the two.
APPS_QUICK = ("FLO52", "OCEAN")
CONFIGS_QUICK = (1, 4, 8, 16, 32)
SCALE_QUICK = 0.05
DEADLINE_QUICK = 2.5

APPS_FULL = ("FLO52", "OCEAN")
CONFIGS_FULL = (1, 4, 8, 16, 32)
SCALE_FULL = 0.1
DEADLINE_FULL = 5.0

#: Injected fault knobs (host seconds).
SLOW_START_S = 0.5
BACKOFF_BASE_S = 0.1
BACKOFF_CAP_S = 0.4


def _calibration_s() -> float:
    """Pure-Python reference loop (the machine-speed yardstick)."""
    begin = perf_counter()
    total = 0
    for i in range(6_000_000):
        total += i & 7
    return perf_counter() - begin


def _grid(quick: bool):
    if quick:
        return APPS_QUICK, CONFIGS_QUICK, SCALE_QUICK, DEADLINE_QUICK
    return APPS_FULL, CONFIGS_FULL, SCALE_FULL, DEADLINE_FULL


def _policy(deadline: float) -> DurablePolicy:
    # The straggler floor is pinned above the cell deadline so the
    # injected hang is always recovered by the deadline monitor (whose
    # dwell lands in ``lost_work_s`` and is excluded from the overhead
    # gate) rather than racing speculative re-dispatch, which would
    # make the gate timing-dependent.  Speculation's first-result-wins
    # path is exercised deterministically in the test suite instead.
    return DurablePolicy(
        cell_deadline_s=deadline,
        backoff_base_s=BACKOFF_BASE_S,
        backoff_cap_s=BACKOFF_CAP_S,
        straggler_floor_s=4.0 * deadline,
        poll_interval_s=0.02,
    )


def _chaos_plan(apps, configs) -> HostChaosPlan:
    """Kill one short cell, hang one, slow-start one -- all distinct."""
    return HostChaosPlan(
        name="chaos-sweep",
        seed=SEED,
        faults=(
            HostFault(
                kind="worker_kill",
                app=apps[0],
                n_processors=configs[1],
                attempt=1,
            ),
            HostFault(
                kind="worker_hang",
                app=apps[1],
                n_processors=configs[-1],
                attempt=1,
                delay_s=0.0,
            ),
            HostFault(
                kind="slow_start",
                app=apps[1],
                n_processors=configs[0],
                attempt=1,
                delay_s=SLOW_START_S,
            ),
        ),
    )


def _tables_text(results) -> str:
    parts = []
    for build in (table1, table3, table4):
        _, text = build(results)
        parts.append(text)
    return "\n".join(parts)


def _interrupt_subprocess(
    journal: Path, apps, configs, scale: float, deadline: float
) -> int:
    """Run the campaign in a child and SIGINT it after two cells.

    Watches the journal for the second ``done`` record so the signal
    reliably lands mid-campaign (not before work starts, not after it
    all finished) with at least two completed cells on record -- leg 4
    corrupts one completed cell's cache entry and still expects the
    *other* to be served from the cache on resume.  Returns the
    child's exit code (130 expected).
    """
    driver = (
        "import sys\n"
        "from repro.core.resilience import resilient_sweep\n"
        "from repro.parallel import DurablePolicy, CampaignInterrupted\n"
        f"policy = DurablePolicy(cell_deadline_s={deadline!r}, "
        f"backoff_base_s={BACKOFF_BASE_S!r}, backoff_cap_s={BACKOFF_CAP_S!r}, "
        "poll_interval_s=0.02)\n"
        "try:\n"
        f"    resilient_sweep({list(apps)!r}, configs={list(configs)!r}, "
        f"scale={scale!r}, seed={SEED!r}, jobs=2, retries=3, "
        f"checkpoint={str(journal)!r}, durable_policy=policy)\n"
        "except CampaignInterrupted as exc:\n"
        "    print(exc, file=sys.stderr)\n"
        "    sys.exit(130)\n"
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep * bool(env.get("PYTHONPATH")) + env.get(
        "PYTHONPATH", ""
    )
    child = subprocess.Popen(
        [sys.executable, "-c", driver],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    deadline_s = time.monotonic() + 120.0
    signalled = False
    while time.monotonic() < deadline_s:
        if child.poll() is not None:
            break
        if not signalled and journal.exists():
            try:
                text = journal.read_text()
            except OSError:
                text = ""
            if text.count('"ev": "done"') + text.count('"ev":"done"') >= 2:
                child.send_signal(signal.SIGINT)
                signalled = True
        time.sleep(0.02)
    try:
        _, err = child.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        child.kill()
        raise
    if err.strip():
        print(f"  child: {err.strip().splitlines()[-1]}")
    return child.returncode


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-sized grid")
    parser.add_argument(
        "--check", action="store_true", help="gate on the resilience invariants"
    )
    parser.add_argument("--output", metavar="FILE", default=None)
    parser.add_argument(
        "--artifacts",
        metavar="DIR",
        default=None,
        help="keep journal, chaos plan and recovery report here",
    )
    args = parser.parse_args()
    apps, configs, scale, deadline = _grid(args.quick)
    work = Path(tempfile.mkdtemp(prefix="cedar-chaos-"))
    artifacts = Path(args.artifacts) if args.artifacts else None
    if artifacts is not None:
        artifacts.mkdir(parents=True, exist_ok=True)

    calibration = _calibration_s()
    print(
        f"chaos-sweep: {len(apps)}x{len(configs)} cells, scale {scale}, "
        f"deadline {deadline}s, calibration {calibration:.3f}s"
    )

    # Leg 1: in-process reference.
    reference = resilient_sweep(apps, configs=configs, scale=scale, seed=SEED)
    ref_tables = _tables_text(reference.results)
    print("  leg 1 (serial reference): done")

    # Leg 2: clean durable pooled run.
    clean = resilient_sweep(
        apps,
        configs=configs,
        scale=scale,
        seed=SEED,
        jobs=2,
        retries=3,
        checkpoint=work / "clean.journal",
        durable_policy=_policy(deadline),
    )
    clean_wall = clean.recovery["wall"]["wall_s"]
    clean_ok = _tables_text(clean.results) == ref_tables
    print(f"  leg 2 (clean durable, jobs=2): wall {clean_wall:.2f}s")

    # Leg 3: chaos run to completion -- the overhead-gated leg.
    plan = _chaos_plan(apps, configs)
    if artifacts is not None:
        save_host_chaos(plan, artifacts / "chaos_plan.json")
    chaos = resilient_sweep(
        apps,
        configs=configs,
        scale=scale,
        seed=SEED,
        jobs=2,
        retries=3,
        checkpoint=work / "chaos.journal",
        durable_policy=_policy(deadline),
        chaos=plan,
    )
    injected = sum(f.delay_s for f in plan.faults if f.kind == "slow_start")
    report = chaos.recovery
    # Re-derive the overhead figures against the measured clean wall.
    ledger = RecoveryLedger(**{
        key: report["recovery"].get(key, 0)
        for key in (
            "retries", "respawns", "worker_deaths", "deadline_kills",
            "stalled_workers", "stragglers", "speculative_wins",
            "speculative_wasted", "speculative_cancelled", "checkpoints",
        )
    })
    ledger.resumed_cells = report["cells"]["resumed_from_journal"]
    ledger.fault_dwell_s = report["wall"]["fault_dwell_s"]
    ledger.lost_work_s = report["wall"]["lost_work_s"]
    report = ledger.report(
        label="chaos-sweep",
        cells_total=report["cells"]["total"],
        cells_completed=report["cells"]["completed"],
        wall_s=report["wall"]["wall_s"],
        clean_wall_s=clean_wall,
        injected_dwell_s=injected,
    )
    report["cache"] = chaos.recovery["cache"]
    if artifacts is not None:
        save_recovery_report(report, artifacts / "recovery_report.json")
        shutil.copy(work / "chaos.journal", artifacts / "chaos.journal")
    chaos_ok = _tables_text(chaos.results) == ref_tables
    rec = report["recovery"]
    wall = report["wall"]
    print(
        f"  leg 3 (chaos durable): wall {wall['wall_s']:.2f}s, "
        f"{rec['worker_deaths']} death(s), {rec['deadline_kills']} hang(s), "
        f"{rec['respawns']} respawn(s), {rec['retries']} retrie(s); "
        f"recovery overhead {wall['recovery_overhead_pct']:.1f}% "
        f"(raw {wall['overhead_pct']:.1f}%)"
    )

    # Leg 4: interrupt mid-campaign, corrupt the cache, resume.
    int_journal = work / "interrupted.journal"
    code = _interrupt_subprocess(int_journal, apps, configs, scale, deadline)
    state = load_journal(int_journal)
    done_at_interrupt = len(state.done)
    print(
        f"  leg 4 (interrupt): exit {code}, journal "
        f"{done_at_interrupt}/{len(state.specs)} done, "
        f"checkpointed={state.checkpointed}"
    )
    cache = ResultCache(state.cache_dir)
    corrupted = False
    if state.done:
        corrupt_cache_entry(cache, next(iter(state.done)), mode="truncate")
        corrupted = True
    resumed = resume_sweep(int_journal, jobs=2)
    resume_ok = _tables_text(resumed.results) == ref_tables
    r_cells = resumed.recovery["cells"]
    r_cache = resumed.recovery["cache"]
    print(
        f"  leg 4 (resume): {r_cells['resumed_from_journal']} from journal, "
        f"{r_cells['completed']}/{r_cells['total']} completed, "
        f"{r_cache['quarantined']} quarantined"
    )

    n_cells = len(apps) * len(configs)
    checks = [
        ("clean durable tables byte-identical to serial", clean_ok),
        ("chaos tables byte-identical to serial", chaos_ok),
        ("chaos campaign completed every cell", len(chaos.failures) == 0),
        ("chaos run saw at least one worker death", rec["worker_deaths"] >= 1),
        ("chaos run recovered the hang", rec["deadline_kills"] >= 1),
        ("chaos run respawned the pool", rec["respawns"] >= 1),
        (
            f"recovery overhead <= {MAX_RECOVERY_OVERHEAD_PCT:.0f}% of clean wall",
            wall["recovery_overhead_pct"] <= MAX_RECOVERY_OVERHEAD_PCT,
        ),
        (
            f"raw chaos wall <= {MAX_RAW_WALL_FACTOR:.0f}x clean wall",
            wall["wall_s"] <= MAX_RAW_WALL_FACTOR * clean_wall,
        ),
        ("interrupted child exited 130", code == 130),
        ("interrupted journal is checkpointed", state.checkpointed),
        (
            "interrupt landed mid-campaign",
            0 < done_at_interrupt < len(state.specs),
        ),
        ("resume tables byte-identical to serial", resume_ok),
        ("resume completed every cell", r_cells["completed"] == n_cells),
        (
            "resume served surviving journal-completed cells from cache",
            r_cells["resumed_from_journal"] == done_at_interrupt - int(corrupted),
        ),
        (
            "corrupted cache entry was quarantined",
            (r_cache["quarantined"] == 1) if corrupted else True,
        ),
    ]
    failed = [name for name, ok in checks if not ok]

    if args.output:
        document = {
            "schema": SCHEMA,
            "quick": args.quick,
            "host": {
                "implementation": platform.python_implementation(),
                "machine": platform.machine(),
                "python": platform.python_version(),
            },
            "calibration_s": round(calibration, 4),
            "grid": {
                "apps": list(apps),
                "configs": list(configs),
                "scale": scale,
                "seed": SEED,
                "cells": n_cells,
            },
            "clean_wall_s": round(clean_wall, 4),
            "chaos": report,
            "interrupt": {
                "exit_code": code,
                "done_at_interrupt": done_at_interrupt,
                "resumed_from_journal": r_cells["resumed_from_journal"],
                "quarantined": r_cache["quarantined"],
                "resume_wall_s": resumed.recovery["wall"]["wall_s"],
            },
            "checks": {name: bool(ok) for name, ok in checks},
        }
        Path(args.output).write_text(json.dumps(document, indent=2) + "\n")
        print(f"wrote {args.output}")

    for name in failed:
        print(f"FAILED check: {name}", file=sys.stderr)
    if not failed:
        print("chaos-sweep: all checks passed")
    shutil.rmtree(work, ignore_errors=True)
    return 1 if (failed and args.check) else 0


if __name__ == "__main__":
    raise SystemExit(main())
