"""The benchmark harness runs the pooled and warm ``tables`` workloads.

``bench/run.py`` launches the real CLI and reads every cell's result
back (``len(result.events)``, the golden payload, the cache entries),
so a change to what a pooled or cached result carries can break the
benchmark without breaking any library test.  This runs the two
``tables`` workloads that go through the pool and the result cache at
a small scale and asserts the harness ends clean.  The golden-table
check applies only at the golden point and is skipped here.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def test_bench_runs_the_pooled_and_warm_tables_workloads(tmp_path):
    env = {k: v for k, v in os.environ.items() if not k.startswith("CEDAR_REPRO_")}
    proc = subprocess.run(
        [
            sys.executable,
            str(ROOT / "bench" / "run.py"),
            "--workload",
            "tables-pooled-cold",
            "--workload",
            "tables-warm",
            "--scale",
            "0.002",
            "--reps",
            "1",
            "--out",
            str(tmp_path / "results.json"),
        ],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert last["correct"] is True, proc.stdout
    assert last["failed"] == 0, proc.stdout
