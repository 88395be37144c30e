"""Host-fault plane: plan validation, seeded generation, cache sabotage.

These are the *plans* and worker-side seams; the end-to-end recovery
from an executed plan is exercised in
``tests/integration/test_crash_resume.py`` and ``scripts/chaos_sweep.py``.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro

from repro.faults import (
    HOST_CHAOS_SCHEMA,
    HOST_FAULT_KINDS,
    HostChaosError,
    HostChaosPlan,
    HostFault,
    corrupt_cache_entry,
    generate_host_chaos,
    load_host_chaos,
    save_host_chaos,
)
from repro.faults.host import apply_host_fault
from repro.parallel import CellSpec, ResultCache, cell_key

APPS = ("FLO52", "OCEAN", "ADM")
CONFIGS = (1, 4, 8)


# -- fault and plan validation -----------------------------------------------


def test_unknown_kind_is_refused():
    with pytest.raises(HostChaosError, match="unknown host fault kind"):
        HostFault(kind="meteor_strike", app="FLO52", n_processors=4)


@pytest.mark.parametrize("field", ["attempt", "delay_s"])
def test_bad_fault_numbers_are_refused(field):
    kwargs = {"kind": "worker_kill", "app": "FLO52", "n_processors": 4, field: -1}
    with pytest.raises(HostChaosError):
        HostFault(**kwargs)


def test_empty_plan_name_is_refused():
    with pytest.raises(HostChaosError, match="name"):
        HostChaosPlan(name="", seed=1)


def test_for_cell_matches_app_procs_and_attempt():
    fault = HostFault(kind="worker_hang", app="OCEAN", n_processors=4, attempt=2)
    plan = HostChaosPlan(name="t", seed=1, faults=(fault,))
    assert plan.for_cell("OCEAN", 4, 2) is fault
    assert plan.for_cell("OCEAN", 4, 1) is None
    assert plan.for_cell("OCEAN", 8, 2) is None
    assert plan.for_cell("FLO52", 4, 2) is None


def test_plan_json_roundtrip(tmp_path):
    plan = generate_host_chaos(APPS, CONFIGS, seed=7, name="roundtrip")
    path = tmp_path / "plan.json"
    save_host_chaos(plan, path)
    loaded = load_host_chaos(path)
    assert loaded == plan
    assert plan.to_dict()["schema"] == HOST_CHAOS_SCHEMA


def test_junk_plan_files_are_refused(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(HostChaosError, match="not valid JSON"):
        load_host_chaos(bad)
    with pytest.raises(HostChaosError, match="cannot read"):
        load_host_chaos(tmp_path / "missing.json")
    with pytest.raises(HostChaosError, match="unknown host chaos fields"):
        HostChaosPlan.from_dict({"name": "x", "surprise": 1})
    with pytest.raises(HostChaosError, match="host fault #0"):
        HostChaosPlan.from_dict({"name": "x", "faults": [{"kind": "worker_kill"}]})


# -- seeded generation -------------------------------------------------------


def test_generation_is_seed_deterministic():
    a = generate_host_chaos(APPS, CONFIGS, seed=42)
    b = generate_host_chaos(APPS, CONFIGS, seed=42)
    assert a == b
    assert generate_host_chaos(APPS, CONFIGS, seed=43) != a


def test_generation_picks_distinct_victims_of_each_kind():
    plan = generate_host_chaos(APPS, CONFIGS, seed=3, kills=2, hangs=1, stragglers=2)
    victims = [(f.app, f.n_processors) for f in plan.faults]
    assert len(victims) == len(set(victims)) == 5
    kinds = {f.kind for f in plan.faults}
    assert kinds <= set(HOST_FAULT_KINDS)
    assert all(f.attempt == 1 for f in plan.faults)


def test_generation_refuses_more_victims_than_cells():
    with pytest.raises(HostChaosError, match="victim cells"):
        generate_host_chaos(("FLO52",), (1,), seed=1, kills=1, hangs=1)


# -- worker-side application -------------------------------------------------


def test_slow_start_sleeps_then_returns_none():
    fault = HostFault(kind="slow_start", app="A", n_processors=1, delay_s=0.05)
    begin = time.perf_counter()
    assert apply_host_fault(fault) is None
    assert time.perf_counter() - begin >= 0.05


def test_worker_kill_sigkills_the_calling_process():
    # A stand-in worker process: the kill is immediate, so the exit
    # after it is never reached.
    code = (
        "from repro.faults.host import HostFault, apply_host_fault\n"
        "apply_host_fault(HostFault(kind='worker_kill', app='A', n_processors=1))\n"
        "raise SystemExit(0)\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=60)
    assert proc.returncode == -signal.SIGKILL


# -- cache sabotage ----------------------------------------------------------

CODE = "feedface" * 4


@pytest.fixture
def stocked_cache(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    key = cell_key(CellSpec(app="FLO52", n_processors=4), code=CODE)
    cache.put(key, {"rows": [1, 2, 3]})
    return cache, key


@pytest.mark.parametrize("mode", ["truncate", "flip"])
def test_corrupt_cache_entry_forces_quarantined_miss(stocked_cache, mode):
    cache, key = stocked_cache
    corrupt_cache_entry(cache, key, mode=mode)
    assert cache.get(key) is None
    assert cache.quarantined == 1
    assert not cache.path_for(key).exists()


def test_corrupt_cache_entry_refuses_junk(stocked_cache):
    cache, key = stocked_cache
    with pytest.raises(HostChaosError, match="no cache entry"):
        corrupt_cache_entry(cache, "0" * 32)
    with pytest.raises(HostChaosError, match="unknown corruption mode"):
        corrupt_cache_entry(cache, key, mode="vaporise")
