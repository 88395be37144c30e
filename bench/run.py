"""The repository's benchmark: time what users run, end to end and by layer.

Usage (from the root of a checkout)::

    python bench/run.py [--workload NAME] [--seed 1994] [--reps 10 | --seconds S]
                        [--trace 0|1] [--scale 0.02] [--out bench/out/results.json]

Each timed invocation launches the real CLI, ``python -m repro.cli``-style,
through the shim ``bench/_child.py``, in its default configuration.  Runs of
the selected workloads are interleaved round-robin, so a noisy minute on a
shared host hits every workload alike, and only one CLI process (with at most
``JOBS`` pool workers) runs at a time.  After the timed rounds, ``--trace 1``
(the default) adds one traced invocation per workload; the per-layer metrics
come from it, and its stdout is the reference every other invocation of the
workload must reproduce.

The command prints every end-to-end metric per workload (median, quartiles,
sample count, unit) and every per-layer metric of the traced run, writes the
results JSON to ``--out`` and the spans of each traced run beside it as
``<workload>.spans.jsonl``, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Exit status: 0 when every check passed, 1 when any invocation failed a
check, 2 when the benchmark refuses to run (a ``CEDAR_REPRO_*`` variable is
set, or the checkout holds no program source).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "_child.py"
SPEC_FILE = ROOT / "BENCHMARK.json"
GOLDEN = ROOT / "tests" / "golden" / "tables_v1.json"
#: The (scale, seed) point ``tests/golden/tables_v1.json`` was taken at.
GOLDEN_POINT = (0.02, 1994)

RESULTS_SCHEMA = "cedar-repro/bench-results/v1"

#: Round-robin order.  ``tables-pooled-cold`` runs before ``tables-warm``
#: so each warm invocation reads the cache the same round just filled.
WORKLOADS = ("tables-serial", "tables-pooled-cold", "tables-warm", "campaign-faulted")
TABLES_WORKLOADS = WORKLOADS[:3]

#: Pool workers for ``tables-pooled-cold``: two, or one per core if fewer.
JOBS = min(2, os.cpu_count() or 1)

SWEEP = "repro.cli.resilient_sweep"
TABLE_BUILDERS = tuple(
    f"repro.cli.{name}" for name in ("table1", "table2", "table3", "table4", "figure3")
)
RUN_PHASES = "repro.core.runner.run_phases"
EXECUTE = "repro.parallel.executor.execute_cells"
SNAPSHOT = "repro.parallel.executor.snapshot_result"
CACHE_GET = "ResultCache.get"
CACHE_PUT = "ResultCache.put"
RUN_WITH_CAMPAIGN = "repro.faults.run_with_campaign"

#: Wrapped names that must fire in the traced run of each workload.  A
#: refactor that moves one of these public functions then fails the
#: benchmark instead of reporting its layer as 0.
REQUIRED_SPANS = {
    "tables-serial": {SWEEP, *TABLE_BUILDERS, RUN_PHASES},
    "tables-pooled-cold": {SWEEP, *TABLE_BUILDERS, EXECUTE, CACHE_GET, CACHE_PUT},
    "tables-warm": {SWEEP, *TABLE_BUILDERS, EXECUTE, CACHE_GET},
    "campaign-faulted": {SWEEP, RUN_WITH_CAMPAIGN, RUN_PHASES},
}

#: End-to-end metrics reported beside the ``BENCHMARK.json`` ones.  They
#: are deterministic or 0 when all is well, so they carry no relative
#: bound: ``compare.py`` calls any change in them a change.
EXTRA_END_TO_END = {
    "failed_frac": "ratio",
    "ct_err_pct": "%",
    "speedup_err_pct": "%",
    "contention_err_pp": "pp",
}


# -- invocations --------------------------------------------------------------


@dataclass
class Invocation:
    """One launch of the CLI and what it left behind."""

    workload: str
    traced: bool
    argv: list[str]
    code: int
    start: float
    wall_s: float
    setup_s: float | None
    peak_rss_mb: float
    stdout: str
    report: dict | None
    worker_spans: list[dict] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.problems)

    @property
    def logged(self) -> bool:
        """Whether the CLI was asked for a campaign log (traced pooled run)."""
        return "--log" in self.argv

    def flag(self, name: str) -> str | None:
        """The value the invocation passed for CLI flag *name*."""
        return self.argv[self.argv.index(name) + 1] if name in self.argv else None


class Launcher:
    """Generates a workload's inputs from the seed and launches the CLI."""

    def __init__(self, work: Path, seed: int, scale: float) -> None:
        self.work = work
        self.seed = seed
        self.scale = scale
        self.count = 0
        self.campaign_file: Path | None = None
        #: The cache the latest ``tables-pooled-cold`` invocation filled;
        #: ``tables-warm`` reads it.
        self.warm_cache: Path | None = None
        #: Invocations made only to prepare inputs (the warm-cache fill).
        self.setup: list[Invocation] = []

    def prepare(self, workloads: list[str]) -> None:
        """Make the inputs the selected workloads need before any timing."""
        if "campaign-faulted" in workloads:
            from dataclasses import replace

            from repro.core.reference import APPS
            from repro.faults import generate_campaign, save_campaign

            # n_processors=8: the generator's default targets CE ids up to
            # 31, which P < 32 cells reject.
            spec = generate_campaign(seed=self.seed, n_faults=4, n_processors=8)
            self.campaign_file = self.work / "campaign.json"
            save_campaign(replace(spec, apps=APPS, configs=(8, 32)), self.campaign_file)
        if "tables-warm" in workloads and "tables-pooled-cold" not in workloads:
            self.setup.append(self.invoke("tables-pooled-cold", traced=False))

    def cli_args(self, workload: str, traced: bool) -> list[str]:
        scale = repr(self.scale)
        if workload == "campaign-faulted":
            return ["campaign", str(self.campaign_file), "--scale", scale]
        argv = ["tables", "--scale", scale, "--seed", str(self.seed)]
        if workload == "tables-pooled-cold":
            cache = self.work / f"cache-{self.count:03d}"
            argv += ["--jobs", str(JOBS), "--cache-dir", str(cache)]
            if traced:
                # Pool workers' spans come from the program's own log.  Only
                # here: on tables-serial --log would reroute the sweep.
                argv += ["--log", str(self.work / f"campaign-{self.count:03d}.jsonl")]
        elif workload == "tables-warm":
            argv += ["--cache-dir", str(self.warm_cache)]
        return argv

    def invoke(self, workload: str, traced: bool) -> Invocation:
        """Launch the CLI once; time it from spawn to exit."""
        self.count += 1
        argv = self.cli_args(workload, traced)
        tag = f"{self.count:03d}-{workload}" + ("-traced" if traced else "")
        report = self.work / f"{tag}.json"
        stdout_path = self.work / f"{tag}.out"
        stderr_path = self.work / f"{tag}.err"
        cmd = [sys.executable, str(CHILD), str(report), "1" if traced else "0", *argv]
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            start = time.monotonic()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT)
            try:
                # wait4 rather than wait: its rusage covers the CLI and every
                # pool worker it reaped, so ru_maxrss is the peak of the run.
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        payload = json.loads(report.read_text()) if report.is_file() else None
        wall = end - start
        if traced and payload is not None and "post_s" in payload:
            wall -= payload["post_s"]
        inv = Invocation(
            workload=workload,
            traced=traced,
            argv=argv,
            code=proc.returncode,
            start=start,
            wall_s=wall,
            setup_s=payload["imported"] - start if payload else None,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            stdout=stdout_path.read_text(),
            report=payload,
        )
        workers = report.with_suffix(".workers")
        for path in sorted(workers.glob("*.jsonl")):
            inv.worker_spans += [json.loads(line) for line in path.read_text().splitlines()]
        if proc.returncode != 0:
            tail = stderr_path.read_text().strip().splitlines()[-3:]
            inv.problems.append(f"exit code {proc.returncode}: {' | '.join(tail)}")
        elif payload is None:
            inv.problems.append("the shim wrote no report")
        if workload == "tables-pooled-cold":
            self._keep_warm_cache(Path(inv.flag("--cache-dir")))
        return inv

    def _keep_warm_cache(self, cache: Path) -> None:
        if self.warm_cache is not None and self.warm_cache != cache:
            shutil.rmtree(self.warm_cache, ignore_errors=True)
        self.warm_cache = cache


# -- correctness ----------------------------------------------------------------


def _tables_text(inv: Invocation) -> str:
    """The invocation's stdout without the campaign summary ``--log`` adds."""
    if not inv.logged:
        return inv.stdout
    head, sep, _ = inv.stdout.partition("\ncampaign ")
    return head + "\n" if sep else inv.stdout


def _reference_stdout(invocations: list[Invocation]) -> str | None:
    """The stdout every invocation of a workload must reproduce.

    The traced run's when it exited cleanly, else the first clean run's.
    """
    clean = [inv for inv in invocations if inv.code == 0]
    traced = [inv for inv in clean if inv.traced]
    chosen = traced or clean
    return _tables_text(chosen[0]) if chosen else None


def sim_digest(cells: list[dict]) -> str:
    """BLAKE2 over the per-cell ``fingerprint_result`` digests."""
    digest = hashlib.blake2b(digest_size=16)
    for cell in sorted(cells, key=lambda c: c["cell"]):
        digest.update(f"{cell['cell']}={cell['fingerprint']}\n".encode())
    return digest.hexdigest()


def grade(runs: dict[str, list[Invocation]], setup: list[Invocation], scale: float, seed: int) -> None:
    """Record every failed check on the invocation it condemns."""
    references = {}
    for workload, invocations in runs.items():
        reference = _reference_stdout(invocations)
        references[workload] = reference
        for inv in invocations:
            if inv.code == 0 and _tables_text(inv) != reference:
                inv.problems.append("stdout differs from the workload's reference run")

    # The three tables-* workloads print the same tables, byte for byte.
    tables_refs = [(w, references[w]) for w in TABLES_WORKLOADS if w in runs]
    tables_refs += [(inv.workload, _tables_text(inv)) for inv in setup if inv.code == 0]
    if tables_refs:
        first_workload, first = tables_refs[0]
        for workload, text in tables_refs[1:]:
            if text != first:
                for inv in runs.get(workload, []) + [i for i in setup if i.workload == workload]:
                    inv.problems.append(f"tables differ from {first_workload}'s")

    digests = {}
    for workload, invocations in runs.items():
        for inv in invocations:
            if not inv.traced or inv.report is None or "spans" not in inv.report:
                continue
            fired = {s["name"] for s in inv.report["spans"] + inv.worker_spans}
            missing = sorted(REQUIRED_SPANS[workload] - fired)
            if missing:
                inv.problems.append(f"wrapped names never fired: {', '.join(missing)}")
            if not inv.report["sweep_ok"]:
                inv.problems.append("the sweep reported failed cells")
            if workload in TABLES_WORKLOADS:
                digests[workload] = (inv, sim_digest(inv.report["cells"]))
                inv.problems += _golden_problems(inv.report["golden"], scale, seed)
    if len({digest for _, digest in digests.values()}) > 1:
        for inv, _ in digests.values():
            inv.problems.append("sim_digest differs across the tables-* workloads")


def _golden_problems(golden: dict | None, scale: float, seed: int) -> list[str]:
    if golden is None:
        return ["no golden payload captured"]
    if (scale, seed) != GOLDEN_POINT:
        return []
    from repro.core.golden import compare_golden, load_golden

    mismatches = compare_golden(load_golden(GOLDEN), golden)
    return [f"golden tables: {m}" for m in mismatches[:5]]


# -- metrics ----------------------------------------------------------------------


def quartiles(values: list[float]) -> dict:
    """Median, first and third quartile and count of *values*."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(invocations: list[Invocation]) -> dict[str, list[float]]:
    """Samples of each timed end-to-end metric, from clean untraced runs."""
    timed = [inv for inv in invocations if not inv.traced and inv.code == 0]
    return {
        "wall_s": [inv.wall_s for inv in timed],
        "setup_s": [inv.setup_s for inv in timed if inv.setup_s is not None],
        "peak_rss_mb": [inv.peak_rss_mb for inv in timed],
    }


def accuracy(golden: dict) -> dict[str, float]:
    """Simulated tables against the paper's (the rows the traced run built).

    In-sample: the model was calibrated on these same tables, so the
    numbers catch drift; they do not validate the model.
    """
    table1 = golden["tables"]["table1"]
    table4 = golden["tables"]["table4"]
    return {
        "ct_err_pct": statistics.mean(abs(r[2] - r[3]) / r[3] * 100.0 for r in table1),
        "speedup_err_pct": statistics.mean(
            abs(r[4] - r[5]) / r[5] * 100.0 for r in table1 if r[1] > 1
        ),
        "contention_err_pp": statistics.mean(abs(r[6] - r[7]) for r in table4 if r[1] > 1),
    }


def _pct(part: float, whole: float) -> float:
    return part / whole * 100.0 if whole > 0 else 0.0


def _frac(part: float, whole: float) -> float:
    return part / whole if whole > 0 else 0.0


def layer_metrics(inv: Invocation, untraced_wall: float | None) -> tuple[dict[str, float], list[dict]]:
    """Per-layer metrics and the span list of one traced invocation.

    Every ``*_pct`` is a self time as a share of the traced run's wall
    time; spans of pool workers are summed over processes, so a pooled
    run's share can exceed 100.
    """
    report = inv.report
    wall = inv.wall_s
    spans = report["spans"] + inv.worker_spans
    duration = {s["id"]: s["end"] - s["start"] for s in spans}
    child_time: dict[str, float] = defaultdict(float)
    for s in spans:
        # Only a child in the parent's own process takes time from it; a
        # pool worker runs beside the coordinator span it was forked under.
        if s["parent"] and int(s["parent"].split(":")[0]) == s["pid"]:
            child_time[s["parent"]] += duration[s["id"]]

    def total(name: str) -> float:
        return sum(duration[s["id"]] for s in spans if s["name"] == name)

    def self_time(name: str) -> float:
        return sum(duration[s["id"]] - child_time[s["id"]] for s in spans if s["name"] == name)

    # Pool workers as the program's own campaign log saw them.
    pool_cells: list = []
    pool_wall = 0.0
    jobs = 1
    log = inv.flag("--log")
    if log and Path(log).is_file():
        from repro.obs.campaign import load_campaign_log, spans_from_log

        header, events = load_campaign_log(log)
        jobs = header.get("jobs", 1)
        pool_wall = next((e["wall_s"] for e in events if e.get("ev") == "end"), 0.0)
        pool_cells = [s for s in spans_from_log(events) if not s.cache_hit]

    # "Cells" are cells simulated in this run; cache hits are excluded.
    simulated = {s["cell"] for s in spans if s["name"] == RUN_PHASES}
    simulated |= {f"{s.app}/P{s.n_processors}" for s in pool_cells if s.ok}
    cells = [c for c in report["cells"] if c["cell"] in simulated]

    def stat(key: str) -> float:
        return sum(c["kernel_stats"].get(key, 0) for c in cells)

    def mode_count(layer: str, mode: str) -> int:
        return sum(1 for c in cells if c["fastpath_modes"].get(layer) == mode)

    lean = stat("runtime.fastpath.lean_pickups") + stat("runtime.fastpath.lean_barrier_detaches")
    exact = stat("runtime.fastpath.exact_pickups") + stat("runtime.fastpath.exact_barrier_detaches")
    reused = stat("pool.timeouts_reused")
    loop_s = sum(c["wall_s"] for c in cells)
    gets = [s for s in spans if s["name"] == CACHE_GET]
    cache = inv.flag("--cache-dir")
    entry_kb = sorted(p.stat().st_size / 1024.0 for p in Path(cache).glob("*/*.pkl")) if cache else []
    analysis_s = sum(total(name) for name in TABLE_BUILDERS)
    setup_s = inv.setup_s or 0.0

    metrics = {
        "sweep.wall_s": total(SWEEP),
        "sweep.self_pct": _pct(self_time(SWEEP), wall),
        "runner.cells": len(cells),
        "runner.build_pct": _pct(
            sum(duration[s["id"]] - s["loop_s"] for s in spans if s["name"] == RUN_PHASES), wall
        ),
        "sim.loop_pct": _pct(loop_s, wall),
        "sim.sim_us_per_loop_s": _frac(sum(c["ct_ns"] for c in cells) / 1e3, loop_s),
        "sim.compiled_cells": mode_count("loop", "compiled"),
        "sim.timeouts_reused_frac": _frac(reused, reused + stat("pool.timeouts_created")),
        "runtime.lean_cells": mode_count("runtime", "batched"),
        "runtime.lean_frac": _frac(lean, lean + exact),
        "xylem.lean_cells": mode_count("xylem", "batched"),
        "xylem.fused_spawns": stat("xylem.fastpath.fused_spawns"),
        "xylem.warm_elisions": stat("xylem.fastpath.warm_elisions"),
        "hpm.statfx_push_cells": mode_count("statfx", "push"),
        "hpm.trace_events": sum(c["events"] for c in cells),
        "analyze.hashed_cells": sum(1 for c in cells if c["schedule_hash"]),
        "parallel.execute_pct": _pct(self_time(EXECUTE), wall),
        "parallel.snapshot_pct": _pct(total(SNAPSHOT), wall),
        "pool.queue_wait_p50_pct": _pct(
            statistics.median(s.queue_wait_s for s in pool_cells) if pool_cells else 0.0, wall
        ),
        "pool.utilization": _frac(sum(s.span_s for s in pool_cells), jobs * pool_wall),
        "pool.worker_overhead_pct": _pct(
            sum(s.span_s - s.run_wall_s for s in pool_cells), sum(s.span_s for s in pool_cells)
        ),
        "cache.get_pct": _pct(total(CACHE_GET), wall),
        "cache.put_pct": _pct(total(CACHE_PUT), wall),
        "cache.hit_frac": _frac(sum(1 for s in gets if s["hit"]), len(gets)),
        "cache.entry_kb_p50": statistics.median(entry_kb) if entry_kb else 0.0,
        **{
            f"analysis.{name.rsplit('.', 1)[1]}_pct": _pct(total(name), wall)
            for name in TABLE_BUILDERS
        },
        "cli.other_pct": _pct(wall - setup_s - total(SWEEP) - analysis_s, wall),
        "trace.overhead_pct": _pct(wall - untraced_wall, untraced_wall) if untraced_wall else 0.0,
    }

    t0 = inv.start
    trace = [
        {"id": "cli", "name": "cli", "cell": None, "start": 0.0, "end": wall, "parent": None}
    ]
    for s in sorted(spans, key=lambda s: s["start"]):
        trace.append(
            {
                "id": s["id"],
                "name": s["name"],
                "cell": s["cell"],
                "start": s["start"] - t0,
                "end": s["end"] - t0,
                "parent": s["parent"] or "cli",
            }
        )
    for i, s in enumerate(pool_cells):
        trace.append(
            {
                "id": f"pool:{i}",
                "name": "pool.cell",
                "cell": f"{s.app}/P{s.n_processors}",
                "start": s.start_s - t0,
                "end": s.end_s - t0,
                "parent": "cli",
            }
        )
    return metrics, trace


# -- command line ---------------------------------------------------------------


def host_info() -> dict:
    """The host and code state the numbers were taken on."""
    from repro.sim.core import compiled_loop_active

    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        sha = proc.stdout.strip() or None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "compiled_loop_active": compiled_loop_active(),
        "jobs": JOBS,
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Time the repro CLI end to end and layer by layer."
    )
    parser.add_argument(
        "--workload",
        choices=WORKLOADS,
        action="append",
        help="workload to run (repeatable; default: all four, interleaved)",
    )
    parser.add_argument("--seed", type=int, default=1994, help="input seed (default 1994)")
    parser.add_argument(
        "--reps", type=int, default=10, help="timed invocations per workload (default 10)"
    )
    parser.add_argument(
        "--seconds",
        type=float,
        default=None,
        help="time-box the timed rounds instead of --reps (at least two rounds)",
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        default=1,
        help="1: add one traced invocation per workload (default)",
    )
    parser.add_argument("--scale", type=float, default=0.02, help="problem scale (default 0.02)")
    parser.add_argument(
        "--out",
        type=Path,
        default=BENCH / "out" / "results.json",
        help="results JSON; spans are written beside it",
    )
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be >= 1")
    return args


def refusal() -> str | None:
    """Why the benchmark must not run here, or ``None``."""
    configured = sorted(k for k in os.environ if k.startswith("CEDAR_REPRO_"))
    if configured:
        return (
            f"{', '.join(configured)} set: the benchmark times the default "
            "configuration only; unset them"
        )
    if not (SRC / "repro" / "cli.py").is_file():
        return f"no program source at {SRC / 'repro'}"
    if not SPEC_FILE.is_file():
        return f"no {SPEC_FILE.name} at the checkout root"
    return None


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    reason = refusal()
    if reason:
        print(f"error: {reason}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_FILE.read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(EXTRA_END_TO_END)
    sys.path.insert(0, str(SRC))
    import compileall

    # Byte-compile once, so no invocation pays for writing .pyc files.
    compileall.compile_dir(SRC, quiet=1)
    import repro.cli  # noqa: F401  (warms the page cache for the children)

    workloads = [w for w in WORKLOADS if w in (args.workload or WORKLOADS)]
    out = args.out.resolve()
    work = out.parent / f"{out.stem}.work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    host = host_info()
    print(
        f"host: python {host['python']}, nproc {host['nproc']}, jobs {host['jobs']}, "
        f"compiled loop {'active' if host['compiled_loop_active'] else 'inactive'}, "
        f"git {host['git_sha'] or 'unknown'}; seed {args.seed}, scale {args.scale}"
    )
    launcher = Launcher(work, args.seed, args.scale)
    launcher.prepare(workloads)

    runs: dict[str, list[Invocation]] = {w: [] for w in workloads}
    started = time.monotonic()
    rounds = 0
    while True:
        for workload in workloads:
            runs[workload].append(launcher.invoke(workload, traced=False))
        rounds += 1
        if args.seconds is None:
            if rounds >= args.reps:
                break
        elif rounds >= 2:
            elapsed = time.monotonic() - started
            # At least two rounds, so even the slowest workload reports a
            # median of two; then another only if it should end near the
            # budget.
            if elapsed + 0.5 * elapsed / rounds >= args.seconds:
                break
    if args.trace:
        for workload in workloads:
            runs[workload].append(launcher.invoke(workload, traced=True))

    grade(runs, launcher.setup, args.scale, args.seed)

    results = {
        "schema": RESULTS_SCHEMA,
        "host": host,
        "seed": args.seed,
        "scale": args.scale,
        "reps": rounds,
        "seconds": args.seconds,
        "workloads": {},
    }
    for workload, invocations in runs.items():
        entry = summarise(workload, invocations, units, out.parent)
        results["workloads"][workload] = entry
        print_workload(workload, entry)
    for inv in launcher.setup:
        if inv.failed:
            print(f"set-up {inv.workload}: " + "; ".join(inv.problems))
    every = [inv for invocations in runs.values() for inv in invocations] + launcher.setup
    failed = sum(1 for inv in every if inv.failed)

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    missing = []
    for workload, entry in results["workloads"].items():
        for name in (m["name"] for m in spec[section]):
            record = entry[section].get(name)
            if record is None:
                missing.append(f"{workload}/{name}")
                continue
            key = name if len(workloads) == 1 else f"{workload}/{name}"
            value = record["value"] if args.trace else record["median"]
            metrics[key] = {"value": value, "unit": units[name]}
    if missing:
        print(f"FAILED: no value for {', '.join(missing)}")
    correct = failed == 0 and not missing
    results["correct"] = correct
    out.write_text(json.dumps(results, indent=1) + "\n")
    shutil.rmtree(work, ignore_errors=True)
    print(f"results: {out}")
    print(
        json.dumps(
            {"correct": correct, "attempted": len(every), "failed": failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


def summarise(workload: str, invocations: list[Invocation], units: dict, out_dir: Path) -> dict:
    """The results-JSON entry of one workload; writes its spans file."""
    failed = sum(1 for inv in invocations if inv.failed)
    entry: dict = {
        "argv": invocations[0].argv,
        "attempted": len(invocations),
        "failed": failed,
        "problems": sorted({p for inv in invocations for p in inv.problems}),
        "end_to_end": {},
        "per_layer": {},
    }
    samples_by_metric = end_to_end(invocations)
    for name, samples in samples_by_metric.items():
        if samples:
            entry["end_to_end"][name] = {"unit": units[name], **quartiles(samples), "samples": samples}
    entry["end_to_end"]["failed_frac"] = {
        "unit": units["failed_frac"],
        **quartiles([failed / len(invocations)]),
        "samples": [failed / len(invocations)],
    }
    traced = [inv for inv in invocations if inv.traced and inv.report and "spans" in inv.report]
    if not traced:
        return entry
    inv = traced[0]
    if inv.report["golden"] is not None:
        for name, value in accuracy(inv.report["golden"]).items():
            entry["end_to_end"][name] = {"unit": units[name], **quartiles([value]), "samples": [value]}
        entry["sim_digest"] = sim_digest(inv.report["cells"])
    walls = samples_by_metric["wall_s"]
    metrics, trace = layer_metrics(inv, statistics.median(walls) if walls else None)
    entry["per_layer"] = {name: {"unit": units[name], "value": v} for name, v in metrics.items()}
    with open(out_dir / f"{workload}.spans.jsonl", "w", encoding="utf-8") as fh:
        for span in trace:
            fh.write(json.dumps(span) + "\n")
    return entry


def print_workload(workload: str, entry: dict) -> None:
    print(f"== {workload}: {' '.join(entry['argv'])}")
    print(f"  {'end-to-end':<28} {'median':>12} {'q1':>12} {'q3':>12} {'n':>4}  unit")
    for name, r in entry["end_to_end"].items():
        print(
            f"  {name:<28} {_fmt(r['median']):>12} {_fmt(r['q1']):>12} "
            f"{_fmt(r['q3']):>12} {r['n']:>4}  {r['unit']}"
        )
    if entry["per_layer"]:
        print(f"  {'per-layer (traced run)':<28} {'value':>12}  unit")
        for name, r in entry["per_layer"].items():
            print(f"  {name:<28} {_fmt(r['value']):>12}  {r['unit']}")
    for problem in entry["problems"]:
        print(f"  FAILED: {problem}")


if __name__ == "__main__":
    raise SystemExit(main())
