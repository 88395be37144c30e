"""The committed kernel-bench cells must still describe HEAD.

``BENCH_kernel.json`` records, for each cold sweep cell, the completion
time and the opt-in schedule hash of that cell at its recorded scale and
seed 1994.  Re-running every cell here turns a stale committed figure
into a test failure instead of a number that silently describes an
older simulation.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.parallel.executor import CellSpec, run_cell

BENCH_PATH = Path(__file__).resolve().parents[2] / "BENCH_kernel.json"
CELLS = json.loads(BENCH_PATH.read_text())["current"]["cells"]


@pytest.mark.parametrize("name", sorted(CELLS))
def test_committed_cell_matches_head(name):
    committed = CELLS[name]
    app, processors = name.rsplit("_P", 1)
    result = run_cell(
        CellSpec(
            app=app,
            n_processors=int(processors),
            scale=committed["scale"],
            seed=1994,
            fingerprint_schedule=True,
        )
    )
    assert result.ct_ns == committed["ct_ns"]
    assert result.schedule_hash == committed["schedule_hash"]
