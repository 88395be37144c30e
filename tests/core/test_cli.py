"""Tests for the command-line interface."""

import inspect
import json
import os
import pickle
import pickletools
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main

#: Modules a warm ``tables`` run must not load: the simulator and the
#: runner that assembles it, the workload models, the sanitizers, the
#: fault planes and the pool.  Served results are plain records and the
#: tables read only them.
SIMULATOR_MODULES = (
    "repro.core.runner",
    "repro.sim",
    "repro.hardware.machine",
    "repro.runtime.library",
    "repro.xylem.kernel",
    "repro.apps",
    "repro.scenario",
    "repro.analyze",
    "repro.faults",
    "concurrent.futures.process",
    "multiprocessing",
)


def _simulator_modules(modules):
    """The names in *modules* that :data:`SIMULATOR_MODULES` rules out."""
    return sorted(
        m
        for m in modules
        if any(m == ban or m.startswith(ban + ".") for ban in SIMULATOR_MODULES)
    )


def _fill_cache(directory, cells):
    """Fill a cache at *directory* with *cells* (``{app: {P: RunResult}}``).

    Keyed as ``tables --scale 0.002`` keys them, so a warm ``tables``
    over *directory* simulates nothing.
    """
    from repro.parallel.cache import ResultCache
    from repro.parallel.executor import CellSpec

    cache = ResultCache(directory)
    for app, by_config in cells.items():
        for n_proc, result in by_config.items():
            spec = CellSpec(app=app, n_processors=n_proc, scale=0.002, seed=1994)
            assert cache.put(spec.key(), result) is not None


def _run_and_list_modules(code: str) -> tuple[str, dict]:
    """Run *code* in a fresh interpreter; return its stdout and ``report``.

    *code* must bind a JSON-able dict ``report``; the names of the
    modules loaded once *code* has run are added to it as ``modules``.
    """
    code += (
        "\nimport json, sys"
        "\nreport['modules'] = sorted(sys.modules)"
        "\nprint(json.dumps(report))"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.splitlines()[-1])


def test_importing_the_cli_leaves_numpy_unimported():
    # numpy is most of the CLI's import time; only the code paths that
    # draw from its generators import it, when they run.
    _, report = _run_and_list_modules("import repro.cli\nreport = {}")
    assert [m for m in report["modules"] if m.split(".")[0] == "numpy"] == []


def test_a_warm_tables_run_loads_no_simulator_code(tmp_path, default_paper_cells):
    cache = tmp_path / "cache"
    _fill_cache(cache, default_paper_cells)
    # The benchmark's warm pass: default --jobs, no --log.
    stdout, report = _run_and_list_modules(
        f"""
import repro.cli
from repro.parallel.cache import ResultCache

hits = []
get = ResultCache.get

def counting_get(self, key):
    result = get(self, key)
    hits.append(result is not None)
    return result

ResultCache.get = counting_get
repro.cli.main(["tables", "--scale", "0.002", "--cache-dir", {str(cache)!r}])
report = {{"hits": hits}}
"""
    )
    assert "Table 1" in stdout
    assert report["hits"] == [True] * 25
    assert _simulator_modules(report["modules"]) == []


def _pickled_modules(payload: bytes) -> set[str]:
    """The module of every global *payload* references, read by pickletools.

    ``STACK_GLOBAL`` takes its module and name from the two values
    pushed before it: strings, or memo references to strings.
    """
    memo: dict[int, object] = {}
    pushed: list[object] = []
    modules = set()
    for opcode, arg, _ in pickletools.genops(payload):
        if opcode.name in ("SHORT_BINUNICODE", "BINUNICODE", "BINUNICODE8", "UNICODE"):
            pushed.append(arg)
        elif opcode.name in ("BINGET", "LONG_BINGET", "GET"):
            pushed.append(memo.get(arg))
        elif opcode.name == "MEMOIZE":
            memo[len(memo)] = pushed[-1] if pushed else None
        elif opcode.name in ("BINPUT", "LONG_BINPUT", "PUT"):
            memo[arg] = pushed[-1] if pushed else None
        elif opcode.name == "STACK_GLOBAL":
            modules.add(pushed[-2])
            pushed.append(None)
        elif opcode.name in ("GLOBAL", "INST"):
            modules.add(arg.split(" ")[0])
            pushed.append(None)
        else:
            pushed.append(None)
    return modules


@pytest.fixture(scope="module")
def campaign_cell():
    """FLO52 P 4 under the smoke campaign: its result carries a fault ledger."""
    from repro.faults import load_campaign
    from repro.parallel.executor import CellSpec, run_cell

    smoke = Path(repro.__file__).resolve().parents[2] / "examples/campaigns/smoke.json"
    return run_cell(CellSpec("FLO52", 4, scale=0.002, campaign=load_campaign(smoke)))


@pytest.mark.parametrize("cell", ["paper", "campaign"])
def test_a_cached_result_references_only_record_modules(
    cell, tmp_path, default_paper_cells, campaign_cell
):
    from repro.parallel.cache import ResultCache

    result = default_paper_cells["ADM"][8] if cell == "paper" else campaign_cell
    entry = ResultCache(tmp_path / "cache").put("0" * 32, result)
    modules = _pickled_modules(pickle.loads(entry.read_bytes())["payload"])
    assert "repro.core.record" in modules
    if cell == "campaign":
        assert result.fault_ledger.records
        assert "repro.faults.ledger" in modules
    # Neither the modules themselves nor what they import may be ruled
    # out, except the fault ledger's own package.
    _, report = _run_and_list_modules(
        "import importlib\n"
        f"for name in {sorted(modules)!r}:\n"
        "    importlib.import_module(name)\n"
        "report = {}"
    )
    loaded = set(report["modules"]) - {"repro.faults", "repro.faults.ledger"}
    assert _simulator_modules(loaded) == []


def test_library_and_resume_default_to_one_job():
    from repro.core.resilience import resilient_sweep, resume_sweep
    from repro.parallel.executor import execute_cells

    defaults = {
        fn.__name__: inspect.signature(fn).parameters["jobs"].default
        for fn in (execute_cells, resilient_sweep, resume_sweep)
    }
    defaults["resume CLI"] = build_parser().parse_args(["resume", "j.journal"]).jobs
    assert defaults == dict.fromkeys(defaults, 1)


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_rejects_bad_processor_count():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "FLO52", "12"])


def test_unknown_app_rejected():
    with pytest.raises(SystemExit):
        main(["run", "NOPE", "8"])


def test_run_command(capsys):
    main(["run", "flo52", "8", "--scale", "0.01"])
    out = capsys.readouterr().out
    assert "FLO52 on 8 processors" in out
    assert "completion time" in out
    assert "contention overhead" in out
    assert "par_concurr" in out


def test_run_command_single_processor_skips_contention(capsys):
    main(["run", "adm", "1", "--scale", "0.01"])
    out = capsys.readouterr().out
    assert "contention overhead" not in out


def test_trace_command(tmp_path, capsys):
    out_file = tmp_path / "t.jsonl"
    main(["trace", "mdg", "8", "-o", str(out_file), "--scale", "0.01"])
    out = capsys.readouterr().out
    assert "wrote" in out
    assert out_file.exists()
    from repro.hpm import load_trace

    events = load_trace(out_file)
    assert events


def test_sweep_command(capsys):
    main(["sweep", "flo52", "--scale", "0.01", "--jobs", "1"])
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "Table 4" in out


def test_sweeps_default_to_one_worker_per_usable_core():
    parser = build_parser()
    cores = len(os.sched_getaffinity(0))
    assert parser.parse_args(["sweep", "flo52"]).jobs == cores
    assert parser.parse_args(["tables"]).jobs == cores
    assert parser.parse_args(["campaign", "c.json"]).jobs == cores
    assert parser.parse_args(["run", "flo52", "4"]).jobs == 1
    assert parser.parse_args(["stats", "flo52", "4", "-o", "s.json"]).jobs == 1
    assert parser.parse_args(["resume", "j.journal"]).jobs == 1
    assert parser.parse_args(["tables", "--jobs", "1"]).jobs == 1
