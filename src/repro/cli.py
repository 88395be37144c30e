"""Command-line interface for the reproduction.

Run as ``python -m repro.cli <command>``:

* ``run APP N_PROC`` -- run one application on one configuration and
  print every decomposition the paper reports for it.  ``run
  --scenario FILE`` runs a declarative scenario document instead
  (``docs/scenarios.md``); processor count, scale and seed then
  default to the scenario's own ``defaults`` section, and the output
  is byte-identical to running the equivalent built-in app.
* ``scenario validate FILES...`` -- parse + compile scenario
  documents, printing one verdict line per file; ``scenario export
  (--app NAME | --all) [-o PATH]`` writes the built-in apps as
  scenario files; ``scenario generate -o DIR --seed S -n N`` writes
  seeded fuzz scenarios.
* ``sweep APP`` -- run one application on all five configurations and
  print its Table 1/3/4 columns.
* ``tables`` -- run everything and print Tables 1-4 and Figures 3, 5-9.
* ``trace APP N_PROC -o FILE`` -- run and off-load the cedarhpm trace
  buffer to a JSON-lines file whose first line is a ``{"meta": ...}``
  header recording the machine configuration, seed and application.
* ``stats APP N_PROC -o FILE`` -- run and write the JSON run report
  (config, seed, git revision, wall time, full metrics snapshot).
* ``profile APP N_PROC`` -- run with the kernel profiler attached and
  print the top simulation processes by host wall time and by
  simulated time.
* ``lint [PATHS]`` -- statically check the determinism invariants
  (``CDR`` rule codes, ``docs/static-analysis.md``); exits non-zero on
  any finding.  ``--stats`` appends the suppression audit: counts of
  ``# cdr: noqa[CODE]`` directives per rule per file.
* ``sanitize --app APP --p N`` -- run a workload twice under one seed
  and diff the processed-event schedule hashes; exits non-zero if the
  runs diverge.
* ``race --app APP --p N`` -- the tie-break perturbation sanitizer:
  run a baseline plus K seeded runs with same-instant event order
  permuted and assert byte-identical breakdowns and tables; any
  divergence is a confirmed order-dependence hazard.  ``--self-test``
  plants a deliberate hazard and exits non-zero unless it is caught.
* ``inject APP N_PROC --campaign FILE`` -- run one application under a
  fault campaign and print the fault log plus the degraded breakdown.
* ``campaign FILE`` -- run (or, with ``--generate``, create) a fault
  campaign over its app/config grid with per-cell failure isolation.
* ``report LOG`` -- distil a campaign event log into the SLO report
  (sustained cells/s, p50/p95/p99 cell latency, utilization, cache and
  failure breakdown, recovery events; ``docs/observability.md``).
* ``resume JOURNAL`` -- resume an interrupted campaign from its
  write-ahead journal: completed cells come from the result cache,
  only incomplete cells re-run, and a code-fingerprint mismatch is
  refused (``docs/resilience.md``).

``run``, ``sweep`` and ``tables`` additionally accept ``--stats FILE``
to write the run report(s) of the runs they perform.  ``run``,
``sweep``, ``tables``, ``stats``, ``campaign`` and ``resume`` accept
``--jobs N`` (fan the sweep cells out across N worker processes;
``sweep``, ``tables`` and ``campaign`` default to one per core the
process may run on, the others to 1, and ``--jobs 1`` runs every cell
in process), ``--cache-dir DIR`` (a content-addressed result cache:
warm reruns skip simulation entirely; see
``docs/parallel-execution.md``), and the campaign
telemetry flags ``--log FILE`` (JSONL event log), ``--progress`` (force
the live progress line) and ``--perfetto FILE`` (campaign-wide Chrome
trace).  ``sweep``, ``tables`` and ``campaign`` additionally accept the
durable-execution flags ``--checkpoint JOURNAL`` (crash-safe journaled
execution; SIGINT/SIGTERM checkpoint and exit 130 with the resume
command), ``--chaos FILE`` (a host-chaos plan), ``--cell-deadline S``
and ``--recovery-report FILE``.  Bad inputs (unknown application,
malformed campaign file, resuming across a code change) exit with
status 2 and a one-line ``error:`` message.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from repro.core.breakdown import ct_breakdown, user_breakdown
from repro.core.concurrency import parallel_loop_concurrency
from repro.core.contention import contention_overhead
from repro.core.experiments import (
    USER_BREAKDOWN_FIGURES,
    figure3,
    figure_user_breakdown,
    table1,
    table2,
    table3,
    table4,
)
from repro.core.reference import APPS
from repro.core.resilience import (
    render_partial_table,
    resilient_sweep,
    resume_sweep,
    save_failure_report,
)
from repro.xylem.categories import TimeCategory

__all__ = ["CLIError", "main"]


class CLIError(Exception):
    """Bad user input: the CLI prints one line and exits with status 2."""


def _app_name(name: str) -> str:
    """The canonical (upper-case) name of a paper application."""
    key = name.upper()
    if key not in APPS:
        raise CLIError(f"unknown application {name!r}; pick from {list(APPS)}")
    return key


def _write_stats(results, path, registry=None) -> None:
    """Write the run report(s) for one result or a list of them."""
    from repro.obs.exporters import build_run_report, save_report

    if isinstance(results, list):
        save_report([build_run_report(r) for r in results], path)
        print(f"wrote {len(results)} run reports to {path}")
    else:
        save_report(build_run_report(results, registry), path)
        print(f"wrote run report to {path}")


def _telemetry_requested(args: argparse.Namespace) -> bool:
    return bool(
        getattr(args, "log", None)
        or getattr(args, "perfetto", None)
        or getattr(args, "progress", False)
    )


def _exit_cell_failure(failure) -> None:
    """Report a cell that exhausted its attempts; exit with status 1."""
    print(
        f"error: {failure.app} P={failure.n_processors} failed after "
        f"{failure.attempts} attempt(s): {failure.error_type}: {failure.message}",
        file=sys.stderr,
    )
    raise SystemExit(1)


def _durable_options(args: argparse.Namespace):
    """``(checkpoint, chaos, policy)`` from the durable-execution flags.

    Loads the host-chaos plan and builds the
    :class:`~repro.parallel.durable.DurablePolicy` when the relevant
    flags are set; enforces that chaos and deadlines make sense only
    with a checkpoint journal (the crash-safe layer owns recovery).
    """
    checkpoint = getattr(args, "checkpoint", None)
    chaos_path = getattr(args, "chaos", None)
    deadline = getattr(args, "cell_deadline", None)
    chaos = None
    if chaos_path:
        if not checkpoint:
            raise CLIError("--chaos requires --checkpoint (journaled execution)")
        from repro.faults.host import HostChaosError, load_host_chaos

        try:
            chaos = load_host_chaos(chaos_path)
        except HostChaosError as exc:
            raise CLIError(str(exc)) from exc
    policy = None
    if deadline is not None:
        if not checkpoint:
            raise CLIError("--cell-deadline requires --checkpoint")
        from repro.parallel.durable import DurablePolicy

        policy = DurablePolicy(cell_deadline_s=deadline)
    return checkpoint, chaos, policy


def _write_recovery_report(args: argparse.Namespace, outcome) -> None:
    """Write ``outcome.recovery`` when ``--recovery-report`` asked for it."""
    path = getattr(args, "recovery_report", None)
    if not path:
        return
    if outcome.recovery is None:
        print("no recovery report: the sweep did not run durably")
        return
    from repro.parallel.durable import save_recovery_report

    save_recovery_report(outcome.recovery, path)
    print(f"wrote recovery report to {path}")


def _make_telemetry(args: argparse.Namespace, label: str):
    """A :class:`~repro.obs.campaign.CampaignTelemetry` per the flags."""
    from repro.obs.campaign import CampaignTelemetry

    return CampaignTelemetry(
        log_path=getattr(args, "log", None),
        progress=True if getattr(args, "progress", False) else None,
        label=label,
    )


def _finish_telemetry(args: argparse.Namespace, telemetry) -> None:
    """Print the campaign summary; write the requested artifacts."""
    if telemetry is None:
        return
    from repro.obs.campaign import render_campaign_report, save_campaign_trace

    print(render_campaign_report(telemetry.report()))
    if getattr(args, "log", None):
        print(f"wrote campaign log to {args.log}")
    if getattr(args, "perfetto", None):
        save_campaign_trace(
            telemetry.spans, args.perfetto, t0=telemetry.header.get("t0")
        )
        print(f"wrote campaign trace to {args.perfetto}")


def _print_metric_block(registry, prefixes, title: str) -> None:
    """Print the scalar/histogram metrics under *prefixes*, if any."""
    names = [name for prefix in prefixes for name in registry.names(prefix)]
    if not names:
        return
    print(f"\n{title}:")
    for name in names:
        metric = registry.get(name)
        if metric is None:
            continue
        if metric.kind in ("counter", "gauge"):
            value = metric.value
            text = f"{value:.4g}" if isinstance(value, float) else str(value)
        elif metric.kind == "histogram":
            p95 = metric.quantile(0.95)
            text = (
                f"count {metric.count}  mean {metric.mean:.4g}"
                + (f"  p95 <= {p95:.4g}" if p95 is not None else "")
            )
        else:
            continue
        print(f"  {name:40s} {text}")


def _resolve_run_workload(args: argparse.Namespace):
    """The :class:`~repro.parallel.executor.CellSpec` that ``run`` runs.

    The workload comes either from a named built-in application
    (positional ``APP`` or ``--app``) or from a scenario document
    (``--scenario``); processor count, scale and seed fall back to the
    scenario's ``defaults`` section when a scenario supplies them, and
    to the historical CLI defaults (0.02, 1994) otherwise.
    """
    from repro.parallel.executor import CellSpec

    if args.app is not None and args.app_opt is not None:
        raise CLIError("give the application positionally or via --app, not both")
    app = args.app if args.app is not None else args.app_opt
    if args.processors is not None and args.processors_opt is not None:
        raise CLIError("give the processor count positionally or via --p, not both")
    processors = (
        args.processors if args.processors is not None else args.processors_opt
    )
    if args.scenario is not None:
        if app is not None:
            raise CLIError("--scenario replaces the application; drop APP/--app")
        from repro.scenario import (
            ScenarioError,
            canonical_scenario_json,
            compile_scenario,
            load_scenario,
        )

        try:
            doc = load_scenario(args.scenario)
            compiled = compile_scenario(doc)
            processors = (
                processors if processors is not None else doc.defaults.n_processors
            )
            # A topology that cannot host the run is an input error
            # (exit 2), reported before any cell runs.
            compiled.config(processors)
        except ScenarioError as exc:
            raise CLIError(str(exc)) from exc
        return CellSpec(
            app=doc.name,
            n_processors=processors,
            scale=args.scale if args.scale is not None else doc.defaults.scale,
            seed=args.seed if args.seed is not None else doc.defaults.seed,
            scenario=canonical_scenario_json(doc),
        )
    if app is None:
        raise CLIError("give an application (APP or --app) or --scenario FILE")
    if processors is None:
        raise CLIError("give a processor count (N_PROC or --p N)")
    return CellSpec(
        app=_app_name(app),
        n_processors=processors,
        scale=args.scale if args.scale is not None else 0.02,
        seed=args.seed if args.seed is not None else 1994,
    )


def _cmd_run(args: argparse.Namespace) -> None:
    import dataclasses

    from repro.parallel.cache import ResultCache
    from repro.parallel.executor import execute_cells

    spec = _resolve_run_workload(args)
    processors, scale = spec.n_processors, spec.scale
    specs = [spec]
    if processors > 1:
        specs.append(dataclasses.replace(spec, n_processors=1))
    telemetry = (
        _make_telemetry(args, label=f"run {spec.app}")
        if _telemetry_requested(args)
        else None
    )
    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    cells, failures = execute_cells(
        specs, jobs=args.jobs, cache=cache, telemetry=telemetry
    )
    if failures:
        _exit_cell_failure(failures[0])
    result = cells[spec]
    if args.stats:
        _write_stats(result, args.stats)
    print(f"{result.app_name} on {processors} processors (scale {scale})")
    print(f"completion time: {result.ct_seconds:.1f} s (extrapolated)")
    print("\ncompletion-time breakdown (main cluster):")
    breakdown = ct_breakdown(result, 0)
    for category in TimeCategory:
        print(f"  {category.value:10s} {breakdown[category] / result.ct_ns:7.2%}")
    print("\nuser-time breakdown (main task):")
    b = user_breakdown(result, 0)
    for name, ns in b.as_dict().items():
        print(f"  {name:14s} {b.fraction(ns):7.2%}")
    if processors > 1:
        row = contention_overhead(result, cells[specs[1]])
        print(f"\ncontention overhead: {row.ov_cont_pct:.1f} % of CT")
        for task in range(result.config.n_clusters):
            name = "Main" if task == 0 else f"helper{task}"
            print(f"  par_concurr {name}: {parallel_loop_concurrency(result, task):.2f}")
    _finish_telemetry(args, telemetry)


def _report_failures(outcome) -> None:
    """Print the partial table and failure lines; exit with status 1."""
    print(render_partial_table(outcome))
    print()
    for failure in outcome.failures:
        print(
            f"FAILED {failure.app} P={failure.n_processors} after "
            f"{failure.attempts} attempt(s): {failure.error_type}: {failure.message}"
        )
    raise SystemExit(1)


def _cmd_sweep(args: argparse.Namespace) -> None:
    app = _app_name(args.app)
    checkpoint, chaos, policy = _durable_options(args)
    telemetry = (
        _make_telemetry(args, label=f"sweep {app}")
        if _telemetry_requested(args)
        else None
    )
    outcome = resilient_sweep(
        [app],
        scale=args.scale,
        seed=args.seed,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        telemetry=telemetry,
        checkpoint=checkpoint,
        chaos=chaos,
        durable_policy=policy,
    )
    results = outcome.results[app]
    if outcome.ok:
        wrapped = {app: results}
        for build in (table1, table3, table4):
            _, text = build(wrapped)
            print(text)
            print()
    if args.stats:
        _write_stats([results[n] for n in sorted(results)], args.stats)
    _finish_telemetry(args, telemetry)
    _write_recovery_report(args, outcome)
    if not outcome.ok:
        _report_failures(outcome)


def _cmd_tables(args: argparse.Namespace) -> None:
    checkpoint, chaos, policy = _durable_options(args)
    telemetry = (
        _make_telemetry(args, label="tables")
        if _telemetry_requested(args)
        else None
    )
    outcome = resilient_sweep(
        APPS,
        scale=args.scale,
        seed=args.seed,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        telemetry=telemetry,
        checkpoint=checkpoint,
        chaos=chaos,
        durable_policy=policy,
    )
    sweep = outcome.results
    if outcome.ok:
        sweep32 = {app: by_config[32] for app, by_config in sweep.items()}
        for build, payload in (
            (table1, sweep),
            (table2, {a: sweep32[a] for a in ("FLO52", "ARC2D", "MDG")}),
            (table3, sweep),
            (table4, sweep),
            (figure3, sweep),
        ):
            _, text = build(payload)
            print(text)
            print()
        for app in USER_BREAKDOWN_FIGURES:
            _, text = figure_user_breakdown(app, sweep[app])
            print(text)
            print()
    if args.stats:
        reports = [
            sweep[app][n] for app in sorted(sweep) for n in sorted(sweep[app])
        ]
        _write_stats(reports, args.stats)
    _finish_telemetry(args, telemetry)
    _write_recovery_report(args, outcome)
    if not outcome.ok:
        _report_failures(outcome)


def _cmd_resume(args: argparse.Namespace) -> None:
    telemetry = (
        _make_telemetry(args, label=f"resume {Path(args.journal).name}")
        if _telemetry_requested(args)
        else None
    )
    outcome = resume_sweep(
        args.journal,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        telemetry=telemetry,
    )
    print(render_partial_table(outcome))
    recovery = outcome.recovery or {}
    cells = recovery.get("cells", {})
    print(
        f"\nresumed {cells.get('resumed_from_journal', 0)} of "
        f"{cells.get('total', 0)} cell(s) from the journal; "
        f"{cells.get('completed', 0)} completed"
    )
    _finish_telemetry(args, telemetry)
    _write_recovery_report(args, outcome)
    if not outcome.ok:
        _report_failures(outcome)


def _cmd_trace(args: argparse.Namespace) -> None:
    import dataclasses

    from repro.hpm.traces import save_trace, trace_summary
    from repro.parallel.executor import CellSpec, run_cell

    result = run_cell(
        CellSpec(
            app=_app_name(args.app),
            n_processors=args.processors,
            scale=args.scale,
            seed=args.seed,
            iteration_events=True,
        )
    )
    header = {
        "app": result.app_name,
        "n_processors": result.config.n_processors,
        "scale": result.scale,
        "seed": result.os_params.seed,
        "ct_ns": result.ct_ns,
        "config": dataclasses.asdict(result.config),
    }
    count = save_trace(result.events, args.output, header=header)
    summary = trace_summary(result.events)
    print(f"wrote {count} events to {args.output}")
    print(f"span: {summary['span_ns'] / 1e6:.1f} ms simulated")
    for name, value in sorted(summary["by_type"].items()):
        print(f"  {name:20s} {value}")


def _cmd_stats(args: argparse.Namespace) -> None:
    from repro.obs.exporters import build_run_report, save_report
    from repro.obs.instrument import Observability
    from repro.parallel.cache import ResultCache
    from repro.parallel.executor import CellSpec, execute_cells, run_cell

    spec = CellSpec(
        app=_app_name(args.app),
        n_processors=args.processors,
        scale=args.scale,
        seed=args.seed,
    )
    if args.jobs != 1 or args.cache_dir is not None or _telemetry_requested(args):
        # Through the pool + cache: the run report is built from the
        # campaign registry, so ``parallel.*`` / ``cache.*`` counters
        # (hits, misses, corruption-as-miss, utilization) and the
        # ``campaign.*``-merged worker metrics are part of the output.
        telemetry = _make_telemetry(args, label=f"stats {spec.app}")
        cache = ResultCache(args.cache_dir) if args.cache_dir else None
        cells, failures = execute_cells(
            [spec], jobs=args.jobs, cache=cache, telemetry=telemetry
        )
        if failures:
            _exit_cell_failure(failures[0])
        result = cells[spec]
        registry = telemetry.registry
    else:
        telemetry = None
        obs = Observability()
        result = run_cell(spec, obs=obs)
        registry = obs.registry
    report = build_run_report(result, registry)
    save_report(report, args.output)
    print(f"wrote run report to {args.output}")
    print(
        f"{result.app_name} on {args.processors} processors: "
        f"CT {result.ct_seconds:.1f} s extrapolated, "
        f"{result.wall_s:.2f} s host wall time, "
        f"{len(report['metrics'])} metrics"
    )
    _print_metric_block(
        registry, ("parallel", "cache"), "parallel execution counters"
    )
    _finish_telemetry(args, telemetry)


def _cmd_profile(args: argparse.Namespace) -> None:
    from repro.obs.instrument import Observability
    from repro.parallel.executor import CellSpec, run_cell

    obs = Observability(profile=True)
    result = run_cell(
        CellSpec(
            app=_app_name(args.app),
            n_processors=args.processors,
            scale=args.scale,
            seed=args.seed,
        ),
        obs=obs,
    )
    print(
        f"{result.app_name} on {args.processors} processors: "
        f"{result.wall_s:.2f} s host wall time, "
        f"{result.ct_ns / 1e6:.1f} ms simulated"
    )
    print(obs.profiler.report(args.top))


def _cmd_report(args: argparse.Namespace) -> None:
    from repro.obs.campaign import (
        build_campaign_report,
        load_campaign_log,
        render_campaign_report,
        save_campaign_report,
        save_campaign_trace,
        spans_from_log,
    )

    try:
        header, events = load_campaign_log(args.log)
    except (OSError, ValueError) as exc:
        raise CLIError(str(exc)) from exc
    report = build_campaign_report(header, events)
    print(render_campaign_report(report))
    if args.json:
        save_campaign_report(report, args.json)
        print(f"wrote campaign report to {args.json}")
    if args.perfetto:
        save_campaign_trace(
            spans_from_log(events), args.perfetto, t0=header.get("t0")
        )
        print(f"wrote campaign trace to {args.perfetto}")


def _cmd_lint(args: argparse.Namespace) -> None:
    from repro.analyze import (
        LintConfig,
        lint_paths,
        render_json,
        render_suppression_stats,
        render_text,
    )

    select = (
        frozenset(code.strip().upper() for code in args.select.split(","))
        if args.select
        else None
    )
    config = LintConfig(select=select)
    try:
        result = lint_paths([Path(p) for p in args.paths], config=config)
    except FileNotFoundError as exc:
        raise SystemExit(str(exc)) from None
    if args.format == "json":
        # The JSON document always embeds the suppression stats.
        print(render_json(result))
    else:
        print(render_text(result))
        if args.stats:
            print(render_suppression_stats(result))
    if not result.ok:
        raise SystemExit(1)


def _cmd_race(args: argparse.Namespace) -> None:
    from repro.analyze import race_app

    seeds = tuple(range(1, args.perturbations + 1))
    try:
        report = race_app(
            args.app,
            args.processors,
            scale=args.scale,
            seeds=seeds,
            os_seed=args.seed,
            order_hazard=args.self_test,
        )
    except ValueError as exc:
        raise CLIError(str(exc)) from exc
    print(report.format())
    if args.self_test:
        if report.hazard_free:
            print("self-test FAILED: the planted hazard went undetected")
            raise SystemExit(1)
        print("self-test passed: the planted hazard was detected")
        return
    if not report.hazard_free:
        raise SystemExit(1)


def _cmd_sanitize(args: argparse.Namespace) -> None:
    from repro.analyze import sanitize_app

    try:
        report = sanitize_app(
            args.app,
            args.processors,
            scale=args.scale,
            seed=args.seed,
            runs=args.runs,
        )
    except ValueError as exc:
        raise CLIError(str(exc)) from exc
    print(report.format())
    if not report.deterministic:
        raise SystemExit(1)


def _cmd_inject(args: argparse.Namespace) -> None:
    from repro.faults import CampaignError, load_campaign
    from repro.obs.instrument import Observability
    from repro.parallel.executor import CellSpec, run_cell
    from repro.sim.errors import DeadlockSuspected, RunawaySimulation

    app = _app_name(args.app)  # validate before the expensive run
    try:
        spec = load_campaign(args.campaign)
        spec.check_processors(args.processors)
    except CampaignError as exc:
        raise CLIError(str(exc)) from exc
    cell = CellSpec(
        app=app,
        n_processors=args.processors,
        scale=args.scale,
        seed=args.seed,
        campaign=spec,
        max_events=args.max_events,
        max_sim_time=args.max_sim_time,
    )
    obs = Observability()
    try:
        result = run_cell(cell, obs)
    except (RunawaySimulation, DeadlockSuspected) as exc:
        # A tripped watchdog is a *finding* about the campaign, not an
        # operator error: report it cleanly and exit 1 (not 2).
        print(f"aborted: {type(exc).__name__}: {exc}", file=sys.stderr)
        raise SystemExit(1) from exc
    ledger = result.fault_ledger
    print(
        f"{result.app_name} on {args.processors} processors under campaign "
        f"{spec.name!r} (seed {args.seed})"
    )
    print(f"completion time: {result.ct_seconds:.1f} s (extrapolated)")
    print(f"faults: {ledger.injected} injected, {ledger.reverted} reverted")
    for record in ledger.records:
        when = f"t={record.applied_ns}ns"
        print(f"  {record.kind:16s} {when:>16s}  {record.note}")
    print("\ncompletion-time breakdown (main cluster):")
    breakdown = ct_breakdown(result, 0)
    for category in TimeCategory:
        print(f"  {category.value:10s} {breakdown[category] / result.ct_ns:7.2%}")
    print("\nfaults.* metrics:")
    for name in obs.registry.names("faults"):
        print(f"  {name:40s} {obs.registry.value(name)}")
    if args.stats:
        _write_stats(result, args.stats, registry=obs.registry)


def _cmd_campaign(args: argparse.Namespace) -> None:
    from repro.faults import (
        DEFAULT_CONFIGS,
        CampaignError,
        generate_campaign,
        load_campaign,
        save_campaign,
    )

    if args.generate:
        seed = args.seed if args.seed is not None else 1994
        try:
            spec = generate_campaign(seed=seed, n_faults=args.faults)
        except CampaignError as exc:
            raise CLIError(str(exc)) from exc
        save_campaign(spec, args.file)
        print(f"wrote campaign {spec.name!r} ({len(spec.faults)} faults) to {args.file}")
        return
    try:
        spec = load_campaign(args.file)
    except CampaignError as exc:
        raise CLIError(str(exc)) from exc
    seed = args.seed if args.seed is not None else spec.seed
    apps = spec.apps or ("FLO52",)
    configs = spec.configs or DEFAULT_CONFIGS
    for app in apps:
        _app_name(app)

    checkpoint, chaos, policy = _durable_options(args)
    telemetry = (
        _make_telemetry(args, label=f"campaign {spec.name}")
        if _telemetry_requested(args)
        else None
    )
    outcome = resilient_sweep(
        apps,
        configs=configs,
        scale=args.scale,
        seed=seed,
        campaign=spec,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        telemetry=telemetry,
        checkpoint=checkpoint,
        chaos=chaos,
        durable_policy=policy,
    )
    print(f"campaign {spec.name!r}: {len(spec.faults)} faults, seed {seed}")
    print(render_partial_table(outcome))
    _finish_telemetry(args, telemetry)
    _write_recovery_report(args, outcome)
    if args.report:
        save_failure_report(outcome, args.report)
        print(f"wrote failure report to {args.report}")
    if not outcome.ok:
        for failure in outcome.failures:
            print(
                f"FAILED {failure.app} P={failure.n_processors}: "
                f"{failure.error_type}: {failure.message}"
            )
        raise SystemExit(1)


def _cmd_scenario_validate(args: argparse.Namespace) -> None:
    from repro.scenario import ScenarioError, compile_scenario, load_scenario

    invalid = 0
    for path in args.files:
        try:
            doc = load_scenario(path)
            compiled = compile_scenario(doc)
        except ScenarioError as exc:
            invalid += 1
            print(f"{path}: INVALID: {exc}")
            continue
        print(
            f"{path}: ok -- {doc.name} [{compiled.digest[:12]}] "
            f"{doc.n_steps} step(s) x {len(doc.loops)} loop(s), "
            f"defaults P={doc.defaults.n_processors} "
            f"scale={doc.defaults.scale} seed={doc.defaults.seed}"
        )
    if invalid:
        print(f"{invalid} of {len(args.files)} scenario(s) invalid")
        raise SystemExit(1)


def _cmd_scenario_export(args: argparse.Namespace) -> None:
    from repro.scenario import ScenarioError, export_app, save_scenario, write_examples

    if args.all:
        directory = args.output if args.output else "examples/scenarios"
        for path in write_examples(directory):
            print(f"wrote {path}")
        return
    try:
        doc = export_app(args.export_app)
    except ScenarioError as exc:
        raise CLIError(str(exc)) from exc
    path = Path(args.output) if args.output else Path(f"{doc.name.lower()}.json")
    save_scenario(doc, path)
    print(f"wrote {doc.name} scenario to {path}")


def _cmd_scenario_generate(args: argparse.Namespace) -> None:
    from repro.scenario import generate_scenarios, save_scenario

    if args.n < 1:
        raise CLIError(f"-n must be >= 1, got {args.n}")
    directory = Path(args.output)
    directory.mkdir(parents=True, exist_ok=True)
    for doc in generate_scenarios(args.seed, args.n):
        save_scenario(doc, directory / f"{doc.name}.json")
    print(f"wrote {args.n} scenario(s) (seed {args.seed}) to {directory}")


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ISCA'94 Cedar overhead characterization, in simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Sweeps default to one worker per core this process may run on.
    usable_cores = (
        len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count() or 1
    )

    def add_parallel_flags(command, jobs: int = 1) -> None:
        command.add_argument(
            "--jobs",
            type=int,
            default=jobs,
            metavar="N",
            help="worker processes for the sweep cells "
            "(1 = in-process; default %(default)s)",
        )
        command.add_argument(
            "--cache-dir",
            metavar="DIR",
            default=None,
            help="content-addressed result cache; warm reruns skip simulation",
        )
        command.add_argument(
            "--log",
            metavar="FILE",
            default=None,
            help="write a campaign event log (JSONL; feed to `report`)",
        )
        command.add_argument(
            "--progress",
            action="store_true",
            help="force the live progress line (default: only on a TTY)",
        )
        command.add_argument(
            "--perfetto",
            metavar="FILE",
            default=None,
            help="write a campaign-wide Chrome/Perfetto trace",
        )

    def add_durable_flags(command) -> None:
        command.add_argument(
            "--checkpoint",
            metavar="JOURNAL",
            default=None,
            help="write-ahead journal: crash-safe execution, resumable "
            "with `resume JOURNAL` (docs/resilience.md)",
        )
        command.add_argument(
            "--chaos",
            metavar="FILE",
            default=None,
            help="host-chaos plan JSON: kill/hang/straggle workers "
            "(requires --checkpoint)",
        )
        command.add_argument(
            "--cell-deadline",
            type=float,
            default=None,
            metavar="SECONDS",
            help="wall budget per cell attempt; over-deadline cells are "
            "killed and retried (requires --checkpoint)",
        )
        command.add_argument(
            "--recovery-report",
            metavar="FILE",
            default=None,
            help="write the cedar-repro/recovery-report/v1 JSON",
        )

    run = sub.add_parser(
        "run", help="run one application or scenario on one configuration"
    )
    run.add_argument("app", nargs="?", default=None, metavar="APP")
    run.add_argument(
        "processors",
        nargs="?",
        type=int,
        choices=(1, 4, 8, 16, 32),
        default=None,
        metavar="N_PROC",
    )
    run.add_argument(
        "--app",
        dest="app_opt",
        default=None,
        metavar="APP",
        help="application by name (same as the positional)",
    )
    run.add_argument(
        "--p",
        "--processors",
        dest="processors_opt",
        type=int,
        choices=(1, 4, 8, 16, 32),
        default=None,
        metavar="N",
        help="processor count (same as the positional)",
    )
    run.add_argument(
        "--scenario",
        metavar="FILE",
        default=None,
        help="run a scenario document (docs/scenarios.md) instead of a "
        "named app; P/scale/seed default to the scenario's own defaults",
    )
    run.add_argument(
        "--scale", type=float, default=None, help="problem scale (default 0.02)"
    )
    run.add_argument(
        "--seed", type=int, default=None, help="OS jitter seed (default 1994)"
    )
    run.add_argument("--stats", metavar="FILE", help="also write the JSON run report")
    add_parallel_flags(run)
    run.set_defaults(func=_cmd_run)

    scenario = sub.add_parser(
        "scenario", help="validate, export or generate scenario documents"
    )
    scenario_sub = scenario.add_subparsers(dest="scenario_command", required=True)
    validate = scenario_sub.add_parser(
        "validate", help="parse + compile scenario files; one verdict line each"
    )
    validate.add_argument("files", nargs="+", metavar="FILE")
    validate.set_defaults(func=_cmd_scenario_validate)
    export = scenario_sub.add_parser(
        "export", help="write built-in application models as scenario files"
    )
    export_which = export.add_mutually_exclusive_group(required=True)
    export_which.add_argument(
        "--app", dest="export_app", metavar="NAME", help="one application"
    )
    export_which.add_argument(
        "--all",
        action="store_true",
        help="all five apps plus the synthetic examples",
    )
    export.add_argument(
        "-o",
        "--output",
        default=None,
        metavar="PATH",
        help="output file for --app (default NAME.json) or directory for "
        "--all (default examples/scenarios)",
    )
    export.set_defaults(func=_cmd_scenario_export)
    generate = scenario_sub.add_parser(
        "generate", help="write seeded fuzz scenarios (docs/scenarios.md)"
    )
    generate.add_argument("-o", "--output", required=True, metavar="DIR")
    generate.add_argument("--seed", type=int, default=1994)
    generate.add_argument(
        "-n", "--count", dest="n", type=int, default=10, help="how many to write"
    )
    generate.set_defaults(func=_cmd_scenario_generate)

    sweep = sub.add_parser("sweep", help="run one application on all configurations")
    sweep.add_argument("app")
    sweep.add_argument("--scale", type=float, default=0.02)
    sweep.add_argument("--seed", type=int, default=1994, help="OS jitter seed")
    sweep.add_argument(
        "--stats", metavar="FILE", help="also write the JSON run reports"
    )
    add_parallel_flags(sweep, jobs=usable_cores)
    add_durable_flags(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    tables = sub.add_parser("tables", help="regenerate Tables 1-4 and Figures 3, 5-9")
    tables.add_argument("--scale", type=float, default=0.02)
    tables.add_argument("--seed", type=int, default=1994, help="OS jitter seed")
    tables.add_argument(
        "--stats", metavar="FILE", help="also write the JSON run reports"
    )
    add_parallel_flags(tables, jobs=usable_cores)
    add_durable_flags(tables)
    tables.set_defaults(func=_cmd_tables)

    resume = sub.add_parser(
        "resume", help="resume an interrupted campaign from its journal"
    )
    resume.add_argument("journal", help="write-ahead journal (from --checkpoint)")
    add_parallel_flags(resume)
    resume.add_argument(
        "--recovery-report",
        metavar="FILE",
        default=None,
        help="write the cedar-repro/recovery-report/v1 JSON",
    )
    resume.set_defaults(func=_cmd_resume)

    trace = sub.add_parser("trace", help="off-load a run's event trace to a file")
    trace.add_argument("app")
    trace.add_argument("processors", type=int, choices=(1, 4, 8, 16, 32))
    trace.add_argument("-o", "--output", default="trace.jsonl")
    trace.add_argument("--scale", type=float, default=0.02)
    trace.add_argument("--seed", type=int, default=1994, help="OS jitter seed")
    trace.set_defaults(func=_cmd_trace)

    stats = sub.add_parser("stats", help="run and write the JSON run report")
    stats.add_argument("app")
    stats.add_argument("processors", type=int, choices=(1, 4, 8, 16, 32))
    stats.add_argument("-o", "--output", default="stats.json")
    stats.add_argument("--scale", type=float, default=0.02)
    stats.add_argument("--seed", type=int, default=1994, help="OS jitter seed")
    add_parallel_flags(stats)
    stats.set_defaults(func=_cmd_stats)

    report = sub.add_parser(
        "report", help="distil a campaign event log into the SLO report"
    )
    report.add_argument("log", help="campaign log JSONL (written via --log)")
    report.add_argument(
        "--json", metavar="FILE", help="also write the CampaignReport JSON"
    )
    report.add_argument(
        "--perfetto", metavar="FILE", help="also write the campaign Chrome trace"
    )
    report.set_defaults(func=_cmd_report)

    profile = sub.add_parser(
        "profile", help="run with the kernel profiler and print hot processes"
    )
    profile.add_argument("app")
    profile.add_argument("processors", type=int, choices=(1, 4, 8, 16, 32))
    profile.add_argument("-k", "--top", type=int, default=10)
    profile.add_argument("--scale", type=float, default=0.02)
    profile.add_argument("--seed", type=int, default=1994, help="OS jitter seed")
    profile.set_defaults(func=_cmd_profile)

    inject = sub.add_parser(
        "inject", help="run one application under a fault campaign"
    )
    inject.add_argument("app")
    inject.add_argument("processors", type=int, choices=(1, 4, 8, 16, 32))
    inject.add_argument(
        "--campaign", metavar="FILE", required=True, help="campaign JSON file"
    )
    inject.add_argument("--scale", type=float, default=0.02)
    inject.add_argument("--seed", type=int, default=1994, help="OS jitter seed")
    inject.add_argument(
        "--max-events", type=int, default=None, help="runaway watchdog: event budget"
    )
    inject.add_argument(
        "--max-sim-time", type=int, default=None, help="runaway watchdog: sim-time cap (ns)"
    )
    inject.add_argument("--stats", metavar="FILE", help="also write the JSON run report")
    inject.set_defaults(func=_cmd_inject)

    campaign = sub.add_parser(
        "campaign",
        help="run a fault campaign over its app/config grid (or --generate one)",
    )
    campaign.add_argument("file", help="campaign JSON file to run (or write)")
    campaign.add_argument(
        "--generate", action="store_true", help="generate a random campaign instead"
    )
    campaign.add_argument(
        "--seed",
        type=int,
        default=None,
        help="OS jitter seed (defaults to the campaign's own seed)",
    )
    campaign.add_argument(
        "--faults", type=int, default=4, help="fault count for --generate"
    )
    campaign.add_argument("--scale", type=float, default=0.02)
    campaign.add_argument(
        "--report", metavar="FILE", help="also write the JSON failure report"
    )
    add_parallel_flags(campaign, jobs=usable_cores)
    add_durable_flags(campaign)
    campaign.set_defaults(func=_cmd_campaign)

    lint = sub.add_parser(
        "lint", help="statically check the determinism invariants (CDR rules)"
    )
    lint.add_argument(
        "paths", nargs="*", default=["src"], help="files or directories to lint"
    )
    lint.add_argument("--format", choices=("text", "json"), default="text")
    lint.add_argument(
        "--select", metavar="CODES", help="comma-separated rule codes to run"
    )
    lint.add_argument(
        "--stats",
        action="store_true",
        help="append the suppression audit (noqa directives per rule per file)",
    )
    lint.set_defaults(func=_cmd_lint)

    sanitize = sub.add_parser(
        "sanitize",
        help="run a workload twice under one seed and diff the schedule hashes",
    )
    sanitize.add_argument("--app", default="synthetic")
    sanitize.add_argument(
        "--p", "--processors", dest="processors", type=int, default=8
    )
    sanitize.add_argument("--scale", type=float, default=0.02)
    sanitize.add_argument("--seed", type=int, default=1994)
    sanitize.add_argument("--runs", type=int, default=2)
    sanitize.set_defaults(func=_cmd_sanitize)

    race = sub.add_parser(
        "race",
        help="perturb same-instant event order and assert identical results",
    )
    race.add_argument("--app", default="synthetic")
    race.add_argument("--p", "--processors", dest="processors", type=int, default=8)
    race.add_argument("--scale", type=float, default=0.02)
    race.add_argument("--seed", type=int, default=1994, help="OS model seed")
    race.add_argument(
        "--perturbations",
        "-k",
        type=int,
        default=5,
        metavar="K",
        help="number of seeded tie-break permutations to compare",
    )
    race.add_argument(
        "--self-test",
        action="store_true",
        help="plant a deliberate order-dependence hazard and require detection",
    )
    race.set_defaults(func=_cmd_race)
    return parser


def main(argv: list[str] | None = None) -> None:
    """CLI entry point.

    Bad inputs raise :class:`CLIError` inside the command handlers and
    are reported uniformly: one ``error:`` line on stderr, exit 2.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    from repro.parallel.durable import CampaignInterrupted
    from repro.parallel.journal import JournalError

    try:
        args.func(args)
    except CLIError as exc:
        # Handlers that read a scenario document raise its ScenarioError
        # as a CLIError: the message carries the precise document path.
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from exc
    except JournalError as exc:
        # Covers JournalMismatchError: resume across a code change is
        # refused, like any other bad input.
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from exc
    except CampaignInterrupted as exc:
        # The conventional 128+SIGINT exit; the message carries the
        # exact resume command.
        print(f"interrupted: {exc}", file=sys.stderr)
        raise SystemExit(130) from exc


if __name__ == "__main__":
    main(sys.argv[1:])
