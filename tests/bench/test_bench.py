"""Smoke and unit tests of the benchmark in ``bench/``."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "bench"
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE = ["--workload", "campaign-faulted", "--scale", "0.002", "--reps", "1"]


def _clean_env() -> dict[str, str]:
    return {k: v for k, v in os.environ.items() if not k.startswith("CEDAR_REPRO_")}


@pytest.fixture
def no_repro_env(monkeypatch):
    for name in [k for k in os.environ if k.startswith("CEDAR_REPRO_")]:
        monkeypatch.delenv(name)


def test_smoke_prints_every_metric_with_its_unit(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *SMOKE, "--out", str(tmp_path / "r.json")],
        cwd=ROOT,
        env=_clean_env(),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    printed = {line.split()[0]: line.split()[-1] for line in lines if line.startswith("  ")}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert printed.get(metric["name"]) == metric["unit"], metric["name"]
    results = json.loads((tmp_path / "r.json").read_text())
    entry = results["workloads"]["campaign-faulted"]
    assert entry["end_to_end"]["failed_frac"]["median"] == 0
    last = json.loads(lines[-1])
    assert last["correct"] and last["failed"] == 0 and last["attempted"] == 2
    assert set(last["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert (tmp_path / "campaign-faulted.spans.jsonl").is_file()


def test_tampered_reference_fails_every_run(tmp_path, monkeypatch, capsys, no_repro_env):
    monkeypatch.setattr(run, "_reference_stdout", lambda invocations: "tampered\n")
    code = run.main([*SMOKE, "--out", str(tmp_path / "r.json")])
    assert code == 1
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert not last["correct"]
    assert last["failed"] == last["attempted"] == 2
    entry = json.loads((tmp_path / "r.json").read_text())["workloads"]["campaign-faulted"]
    assert entry["end_to_end"]["failed_frac"]["median"] == 1.0


def test_env_guard_refuses(monkeypatch, capsys):
    monkeypatch.setenv("CEDAR_REPRO_FASTPATH", "off")
    assert run.main(SMOKE) == 2
    captured = capsys.readouterr()
    assert "CEDAR_REPRO_FASTPATH" in captured.err
    assert captured.out == ""


def test_refuses_without_program_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *SMOKE],
        cwd=tmp_path,
        env=_clean_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""


def _side(samples: list[float]) -> dict:
    return {"samples": samples, **run.quartiles(samples)}


BASE = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.08, 9.92, 10.0]


@pytest.mark.parametrize(
    ("change", "expected"),
    [
        ([x * 1.002 for x in BASE], "same"),
        ([x * 1.3 for x in BASE], "worse"),
        ([x * 0.8 for x in BASE], "better"),
        ([6.0, 14.0, 8.0, 12.0, 10.0, 7.0, 13.0, 9.0, 11.0, 10.5], "unresolved"),
    ],
)
def test_compare_verdicts(change, expected):
    assert compare.verdict(_side(BASE), _side(change), 0.1, lower_is_better=True) == expected


def test_compare_wide_but_separated_runs_resolve():
    base = [10.0, 14.0, 12.0, 11.0]
    change = [20.0, 28.0, 24.0, 22.0]
    assert compare.verdict(_side(base), _side(change), 0.1, lower_is_better=True) == "worse"
    assert compare.verdict(_side(base), _side(change), 0.1, lower_is_better=False) == "better"


def test_compare_exact_metrics_and_rows():
    def results(failed: float, wall: list[float]) -> dict:
        e2e = {"wall_s": _side(wall), "failed_frac": _side([failed])}
        return {"workloads": {"tables-serial": {"end_to_end": e2e}}}

    rows = compare.compare(results(0.0, BASE), results(0.5, BASE), SPEC)
    verdicts = {name: v for _, name, _, _, v in rows}
    assert verdicts == {"wall_s": "same", "failed_frac": "worse"}
