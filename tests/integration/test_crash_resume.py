"""End-to-end crash recovery: kills, interrupts, resume byte-identity.

These tests execute real worker processes and real signals -- the
durable layer's whole value is that recovery happens at the process
level, so mocks would prove nothing.  Scales are tiny (the simulation
model is deterministic at any scale) to keep each scenario in CI-sized
wall time; the full harness lives in ``scripts/chaos_sweep.py``.
"""

from __future__ import annotations

import os
import signal

import pytest

from repro.core.experiments import table1, table3, table4
from repro.faults.host import HostChaosPlan, HostFault
from repro.parallel import (
    CampaignInterrupted,
    CampaignJournal,
    DurablePolicy,
    JournalMismatchError,
    durable_sweep,
    load_journal,
    parallel_sweep,
    resume_sweep,
)

APPS = ["FLO52", "OCEAN"]
CONFIGS = [1, 4]
SCALE = 0.002
SEED = 1994

FAST = DurablePolicy(
    backoff_base_s=0.05, backoff_cap_s=0.2, poll_interval_s=0.02
)


def _tables(results) -> str:
    return "\n".join(table(results)[1] for table in (table1, table3, table4))


@pytest.fixture(scope="module")
def reference_tables():
    outcome = parallel_sweep(APPS, configs=CONFIGS, scale=SCALE, seed=SEED, jobs=1)
    return _tables(outcome.results)


def test_worker_kill_is_retried_to_byte_identical_tables(
    tmp_path, reference_tables
):
    plan = HostChaosPlan(
        name="kill-one",
        seed=SEED,
        faults=(
            HostFault(
                kind="worker_kill", app="FLO52", n_processors=1
            ),
        ),
    )
    outcome = durable_sweep(
        APPS,
        tmp_path / "kill.journal",
        configs=CONFIGS,
        scale=SCALE,
        seed=SEED,
        jobs=2,
        policy=FAST,
        chaos=plan,
        handle_signals=False,
    )
    assert outcome.ok
    recovery = outcome.recovery["recovery"]
    assert recovery["worker_deaths"] >= 1
    assert recovery["respawns"] >= 1
    assert recovery["retries"] >= 1
    assert _tables(outcome.results) == reference_tables


def test_hung_cell_is_rescued_by_speculation(tmp_path, reference_tables):
    # No deadline and a tiny straggler floor: the ONLY way this campaign
    # can complete is a speculative duplicate winning first-result-wins
    # against the hung original.
    plan = HostChaosPlan(
        name="hang-one",
        seed=SEED,
        faults=(
            HostFault(kind="worker_hang", app="OCEAN", n_processors=4),
        ),
    )
    policy = DurablePolicy(
        backoff_base_s=0.05,
        backoff_cap_s=0.2,
        poll_interval_s=0.02,
        straggler_min_samples=1,
        straggler_floor_s=0.1,
        straggler_factor=3.0,
    )
    outcome = durable_sweep(
        APPS,
        tmp_path / "hang.journal",
        configs=CONFIGS,
        scale=SCALE,
        seed=SEED,
        jobs=2,
        policy=policy,
        chaos=plan,
        handle_signals=False,
    )
    assert outcome.ok
    recovery = outcome.recovery["recovery"]
    assert recovery["stragglers"] >= 1
    assert recovery["speculative_wins"] >= 1
    assert _tables(outcome.results) == reference_tables


def test_sigint_checkpoints_then_resume_is_byte_identical(
    tmp_path, reference_tables, monkeypatch
):
    journal = tmp_path / "interrupted.journal"
    # Fire a real SIGINT at the coordinator the moment the first cell is
    # journaled done: mid-campaign however fast the cells run.
    record_done = CampaignJournal.record_done
    fired = []

    def record_then_interrupt(self, *args):
        record_done(self, *args)
        if not fired:
            fired.append(True)
            os.kill(os.getpid(), signal.SIGINT)

    monkeypatch.setattr(CampaignJournal, "record_done", record_then_interrupt)
    with pytest.raises(CampaignInterrupted, match="cedar-repro resume"):
        durable_sweep(
            APPS,
            journal,
            configs=CONFIGS,
            scale=SCALE,
            seed=SEED,
            jobs=2,
            policy=FAST,
        )
    monkeypatch.undo()

    state = load_journal(journal)
    assert state.checkpointed
    assert len(state.done) < len(state.specs)

    outcome = resume_sweep(journal, jobs=2, policy=FAST, handle_signals=False)
    assert outcome.ok
    cells = outcome.recovery["cells"]
    assert cells["completed"] == len(APPS) * len(CONFIGS)
    assert cells["resumed_from_journal"] == len(state.done)
    assert _tables(outcome.results) == reference_tables


def test_resume_refuses_foreign_fingerprint(tmp_path, monkeypatch, capsys):
    journal = tmp_path / "foreign.journal"
    durable_sweep(
        ["FLO52"],
        journal,
        configs=[1],
        scale=SCALE,
        seed=SEED,
        jobs=1,
        policy=FAST,
        handle_signals=False,
    )

    from repro.parallel import cache as cache_mod

    monkeypatch.setattr(cache_mod, "_code_fingerprint", "0" * 32)
    with pytest.raises(JournalMismatchError):
        resume_sweep(journal, jobs=1, handle_signals=False)

    # Same refusal through the CLI: a usage-style error, exit code 2.
    from repro.cli import main

    with pytest.raises(SystemExit) as excinfo:
        main(["resume", str(journal)])
    assert excinfo.value.code == 2
    assert "error:" in capsys.readouterr().err
