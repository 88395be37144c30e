"""Golden-table baselines: freeze the paper tables, catch drift.

The model is deterministic, so the full table set at a fixed (scale,
seed) is a *contract*: any code change that shifts a number is either
an intentional model change (regenerate the golden via
``scripts/refresh_golden.py`` and review the diff) or a regression
(the golden test catches it).  The baseline lives in
``tests/golden/tables_v1.json`` and covers Tables 1-4 plus Figure 3
at the benchmark point (scale 0.02, seed 1994);
``tests/golden/figures_v1.json`` holds the per-application user-time
breakdowns of Figures 5-9 from the same sweep, in the same document
shape with one row set per application.

Values are compared with a tight relative tolerance rather than byte
equality so the baseline survives harmless float-formatting changes
while still flagging any real numeric drift.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.experiments import (
    figure3,
    figure_user_breakdown,
    table1,
    table2,
    table3,
    table4,
)
from repro.core.record import RunResult

__all__ = [
    "GOLDEN_SCHEMA",
    "TABLE2_APPS",
    "compare_golden",
    "golden_figures_payload",
    "golden_payload",
    "load_golden",
    "save_golden",
]

GOLDEN_SCHEMA = "cedar-repro/golden-tables/v1"

#: Applications the paper's Table 2 reports (the CLI uses the same set).
TABLE2_APPS = ("FLO52", "ARC2D", "MDG")


def golden_payload(
    sweep: dict[str, dict[int, RunResult]], scale: float, seed: int
) -> dict:
    """Build the golden document from a full ``apps x configs`` sweep."""
    sweep32 = {app: by_config[32] for app, by_config in sweep.items()}
    tables = {
        "table1": table1(sweep)[0],
        "table2": table2({a: sweep32[a] for a in TABLE2_APPS})[0],
        "table3": table3(sweep)[0],
        "table4": table4(sweep)[0],
        "figure3": figure3(sweep)[0],
    }
    return {
        "schema": GOLDEN_SCHEMA,
        "scale": scale,
        "seed": seed,
        "tables": tables,
    }


def golden_figures_payload(
    sweep: dict[str, dict[int, RunResult]], scale: float, seed: int
) -> dict:
    """Build the Figures 5-9 golden document, rows keyed by application.

    Keyed by name rather than figure number: the user-time breakdown
    rows of each application are one figure of the paper.
    """
    return {
        "schema": GOLDEN_SCHEMA,
        "scale": scale,
        "seed": seed,
        "tables": {
            app: figure_user_breakdown(app, by_config)[0]
            for app, by_config in sweep.items()
        },
    }


def save_golden(payload: dict, path: str | Path) -> None:
    """Write a golden document as pretty-printed JSON."""
    Path(path).write_text(json.dumps(payload, indent=1) + "\n")


def load_golden(path: str | Path) -> dict:
    """Load a golden document, validating its schema marker."""
    payload = json.loads(Path(path).read_text())
    if payload.get("schema") != GOLDEN_SCHEMA:
        raise ValueError(
            f"not a golden-tables document: schema={payload.get('schema')!r}"
        )
    return payload


def _close(expected: float, actual: float, rtol: float, atol: float) -> bool:
    return abs(actual - expected) <= atol + rtol * abs(expected)


def compare_golden(
    expected: dict,
    actual: dict,
    rtol: float = 1e-9,
    atol: float = 1e-12,
) -> list[str]:
    """Diff two golden documents; return human-readable mismatch lines.

    An empty list means the documents agree: same tables, same row
    shapes, every non-numeric cell equal, every numeric cell within
    ``atol + rtol * |expected|``.
    """
    problems: list[str] = []
    for meta in ("schema", "scale", "seed"):
        if expected.get(meta) != actual.get(meta):
            problems.append(
                f"{meta}: expected {expected.get(meta)!r}, got {actual.get(meta)!r}"
            )
    exp_tables = expected.get("tables", {})
    act_tables = actual.get("tables", {})
    if set(exp_tables) != set(act_tables):
        problems.append(
            f"table set: expected {sorted(exp_tables)}, got {sorted(act_tables)}"
        )
        return problems
    for name in sorted(exp_tables):
        exp_rows, act_rows = exp_tables[name], act_tables[name]
        if len(exp_rows) != len(act_rows):
            problems.append(
                f"{name}: expected {len(exp_rows)} rows, got {len(act_rows)}"
            )
            continue
        for i, (exp_row, act_row) in enumerate(zip(exp_rows, act_rows)):
            if len(exp_row) != len(act_row):
                problems.append(
                    f"{name}[{i}]: expected {len(exp_row)} cells, "
                    f"got {len(act_row)}"
                )
                continue
            for j, (exp, act) in enumerate(zip(exp_row, act_row)):
                if isinstance(exp, bool) or isinstance(act, bool):
                    ok = exp == act
                elif isinstance(exp, (int, float)) and isinstance(act, (int, float)):
                    ok = _close(float(exp), float(act), rtol, atol)
                else:
                    ok = exp == act
                if not ok:
                    problems.append(
                        f"{name}[{i}][{j}]: expected {exp!r}, got {act!r}"
                    )
    return problems
