"""Golden-figure regression: Figures 5-9 must match the committed baseline.

``figures_v1.json`` freezes the per-application user-time breakdowns
(:func:`repro.core.experiments.figure_user_breakdown`) at scale 0.02 /
seed 1994, keyed by application name.  It shares the golden-tables
document shape, so :func:`repro.core.golden.compare_golden` diffs it at
the same tolerance; the negative test proves a perturbed value is
reported.
"""

from __future__ import annotations

import copy
from pathlib import Path

import pytest

from repro.core import reference
from repro.core.golden import (
    GOLDEN_SCHEMA,
    compare_golden,
    golden_figures_payload,
    load_golden,
)

FIGURES_PATH = Path(__file__).parent / "figures_v1.json"


@pytest.fixture(scope="module")
def baseline():
    return load_golden(FIGURES_PATH)


def test_figures_document_shape(baseline):
    assert baseline["schema"] == GOLDEN_SCHEMA
    assert baseline["scale"] == 0.02
    assert baseline["seed"] == 1994
    assert list(baseline["tables"]) == list(reference.APPS)
    for app, rows in baseline["tables"].items():
        # One Main row per single-cluster config, one row per task above.
        assert [row[0] for row in rows].count(1) == 1, app
        assert all(row[1] == "Main" or row[1].startswith("helper") for row in rows)


def test_figures_match_golden(golden_sweep, baseline):
    actual = golden_figures_payload(golden_sweep, scale=0.02, seed=1994)
    problems = compare_golden(baseline, actual)
    assert not problems, "golden drift:\n" + "\n".join(problems)


def test_comparator_catches_figure_value_perturbation(baseline):
    perturbed = copy.deepcopy(baseline)
    row = perturbed["tables"]["MDG"][3]
    col = next(i for i, cell in enumerate(row) if isinstance(cell, float))
    row[col] = row[col] * (1 + 1e-6) + 1e-9
    problems = compare_golden(baseline, perturbed)
    assert problems and all(p.startswith("MDG[3]") for p in problems)
