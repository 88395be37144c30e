"""Unit tests for the table/figure experiment harness itself."""

import pytest

from repro.core.experiments import (
    figure3,
    figure_user_breakdown,
    table1,
    table2,
    table3,
    table4,
)
from repro.core import reference
from repro.core.resilience import resilient_sweep


@pytest.fixture(scope="module")
def tiny_sweep():
    """FLO52 on 1 and 32 processors at a tiny scale."""
    outcome = resilient_sweep(["FLO52"], configs=(1, 32), scale=0.01)
    assert outcome.ok, outcome.failures
    return outcome.results


def test_sweep_application_builds_all_configs(tiny_sweep):
    by_config = tiny_sweep["FLO52"]
    assert set(by_config) == {1, 32}
    assert by_config[32].app_name == "FLO52"


def test_table1_rows_and_text(tiny_sweep):
    rows, text = table1(tiny_sweep)
    assert len(rows) == 2
    app, n_proc, ct, paper_ct, speedup, paper_s, conc, paper_c = rows[0]
    assert app == "FLO52" and n_proc == 1
    assert paper_ct == reference.TABLE1["FLO52"][1][0]
    assert "Table 1" in text
    # Paper columns are interleaved with simulated ones.
    assert "paper" in text


def test_table2_rows(tiny_sweep):
    rows, text = table2({"FLO52": tiny_sweep["FLO52"][32]})
    assert len(rows) == 9  # one per OsActivity
    assert all(row[0] == "FLO52" for row in rows)
    assert "cpi" in text


def test_table3_skips_single_processor(tiny_sweep):
    rows, text = table3(tiny_sweep)
    assert all(row[1] != 1 for row in rows)
    # 32 procs -> 4 tasks.
    assert len(rows) == 4
    assert rows[0][2] == "Main"


def test_table4_includes_baseline_row(tiny_sweep):
    rows, text = table4(tiny_sweep)
    assert len(rows) == 2
    baseline = rows[0]
    assert baseline[1] == 1
    assert baseline[4] is None  # no ideal for the 1-proc row
    full = rows[1]
    assert full[1] == 32
    assert full[6] is not None  # Ov_cont present


def test_figure3_rows(tiny_sweep):
    rows, text = figure3(tiny_sweep)
    assert len(rows) == 2
    for row in rows:
        user, system, interrupt, kspin = row[2:]
        assert 0 <= user <= 100
        assert user + system + interrupt + kspin == pytest.approx(100.0)


def test_figure_user_breakdown_rows(tiny_sweep):
    rows, text = figure_user_breakdown("FLO52", tiny_sweep["FLO52"])
    # 1 task at 1 proc + 4 tasks at 32 procs.
    assert len(rows) == 5
    assert "FLO52" in text
    for row in rows:
        for pct in row[2:]:
            assert -1e-9 <= pct <= 100.0 + 1e-9
