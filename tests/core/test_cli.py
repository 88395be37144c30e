"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main


def test_importing_the_cli_leaves_numpy_unimported():
    # numpy is most of the CLI's import time; only the code paths that
    # draw from its generators import it, when they run.
    code = "import sys, repro.cli\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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
    main(["sweep", "flo52", "--scale", "0.01"])
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "Table 4" in out
