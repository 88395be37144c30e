"""One way to run a cell: only the executor and the campaign glue simulate.

``run_application`` / ``run_phases`` are the public library entry, but
inside the package every simulating command, ``inject`` included, goes
through :func:`repro.parallel.executor.run_cell` (which reaches fault
campaigns through :func:`repro.faults.run_with_campaign`).  A new call
site that assembles the stack itself, or runs a campaign around
``run_cell``, would bypass the cache key and the telemetry seam, so
this scan fails on it.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

ENTRIES = {"run_application", "run_phases", "run_with_campaign"}
ALLOWED = {"core/runner.py", "parallel/executor.py", "faults/campaign.py"}


def _called_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def test_only_run_cell_and_the_campaign_route_call_the_runner():
    root = Path(repro.__file__).resolve().parent
    callers = set()
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _called_name(node) in ENTRIES:
                callers.add(f"{path.relative_to(root).as_posix()}:{node.lineno}")
    stray = sorted(c for c in callers if c.rsplit(":", 1)[0] not in ALLOWED)
    assert not stray, f"stack assembled outside run_cell: {stray}"
    # The scan sees the sanctioned callers, so it is not vacuous.
    assert {c.rsplit(":", 1)[0] for c in callers} == ALLOWED
