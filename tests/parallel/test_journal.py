"""Write-ahead journal invariants: torn tails, provenance, resume state.

The journal is the campaign's crash-safety contract: every record lands
with one atomic append, a crash can tear at most the final line, and a
resume must reconstruct exactly the set of completed cells -- or refuse
outright when the code fingerprint no longer matches.
"""

from __future__ import annotations

import json
import types

import pytest

from repro.parallel import (
    JOURNAL_SCHEMA,
    CampaignJournal,
    CellSpec,
    JournalError,
    JournalMismatchError,
    load_journal,
)
from repro.parallel.journal import spec_from_dict, spec_to_dict


def _specs():
    return [
        CellSpec(app="FLO52", n_processors=1),
        CellSpec(app="FLO52", n_processors=4),
        CellSpec(app="OCEAN", n_processors=4),
    ]


#: A stand-in ``fingerprint_result`` digest.
FINGERPRINT = "f" * 32


def _result(ct_ns=123_456):
    """A stand-in for RunResult (record_done only reads ``ct_ns``)."""
    return types.SimpleNamespace(ct_ns=ct_ns)


@pytest.fixture
def journal_path(tmp_path):
    return tmp_path / "campaign.journal"


def test_roundtrip(journal_path):
    specs = _specs()
    with CampaignJournal.create(
        journal_path,
        specs,
        seed=7,
        label="roundtrip",
        cache_dir=journal_path.parent / "cache",
        sweep={"apps": ["FLO52", "OCEAN"], "configs": [1, 4]},
    ) as journal:
        journal.record_dispatch(specs[0], attempt=1)
        journal.record_done(specs[0], _result(), FINGERPRINT)

    state = load_journal(journal_path)
    assert state.header["schema"] == JOURNAL_SCHEMA
    assert state.header["seed"] == 7
    assert state.label == "roundtrip"
    assert state.cache_dir == journal_path.parent / "cache"
    assert state.header["sweep"]["configs"] == [1, 4]
    assert [s.key() for s in state.specs] == [s.key() for s in specs]
    assert set(state.done) == {specs[0].key()}
    assert state.done[specs[0].key()]["result_fingerprint"] == FINGERPRINT
    assert [s.key() for s in state.incomplete()] == [
        specs[1].key(),
        specs[2].key(),
    ]
    assert not state.checkpointed


def test_checkpoint_marks_resumable(journal_path):
    with CampaignJournal.create(journal_path, _specs()) as journal:
        journal.record_checkpoint("SIGINT")
    assert load_journal(journal_path).checkpointed


def test_failed_then_done_supersedes(journal_path):
    from repro.core.resilience import CellFailure

    specs = _specs()
    with CampaignJournal.create(journal_path, specs) as journal:
        journal.record_failed(
            specs[1],
            CellFailure(
                app=specs[1].app,
                n_processors=specs[1].n_processors,
                attempts=4,
                error_type="WorkerDied",
                message="killed",
            ),
        )
        journal.record_done(specs[1], _result(), FINGERPRINT)
    state = load_journal(journal_path)
    assert specs[1].key() in state.done
    assert specs[1].key() not in state.failed


def test_torn_final_line_is_tolerated(journal_path):
    specs = _specs()
    with CampaignJournal.create(journal_path, specs) as journal:
        journal.record_done(specs[0], _result(), FINGERPRINT)
    with open(journal_path, "a", encoding="utf-8") as fh:
        fh.write('{"ev": "done", "key": "tor')  # crash mid-append
    state = load_journal(journal_path)
    assert set(state.done) == {specs[0].key()}


def test_earlier_corruption_raises(journal_path):
    with CampaignJournal.create(journal_path, _specs()):
        pass
    lines = journal_path.read_text().splitlines()
    lines[1] = lines[1][: len(lines[1]) // 2]  # tear a NON-final line
    journal_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(JournalError, match="line 2"):
        load_journal(journal_path)


def test_empty_and_foreign_files_are_refused(tmp_path):
    empty = tmp_path / "empty.journal"
    empty.write_text("")
    with pytest.raises(JournalError, match="empty"):
        load_journal(empty)
    foreign = tmp_path / "foreign.journal"
    foreign.write_text(json.dumps({"schema": "someone-else/v9"}) + "\n")
    with pytest.raises(JournalError, match="not a journal"):
        load_journal(foreign)
    with pytest.raises(JournalError, match="cannot read"):
        load_journal(tmp_path / "missing.journal")


def test_fingerprint_mismatch_is_refused(journal_path, monkeypatch):
    with CampaignJournal.create(journal_path, _specs()):
        pass
    state = load_journal(journal_path)
    state.check_fingerprint()  # same code: fine

    from repro.parallel import cache as cache_mod

    monkeypatch.setattr(cache_mod, "_code_fingerprint", "0" * 32)
    with pytest.raises(JournalMismatchError, match="must not be mixed"):
        load_journal(journal_path).check_fingerprint()


def test_create_refuses_overwrite_and_append_requires_existing(journal_path):
    with CampaignJournal.create(journal_path, _specs()):
        pass
    with pytest.raises(JournalError, match="already exists"):
        CampaignJournal.create(journal_path, _specs())
    with pytest.raises(JournalError, match="does not exist"):
        CampaignJournal.append_to(journal_path.with_name("nope.journal"))


def test_closed_journal_refuses_appends(journal_path):
    journal = CampaignJournal.create(journal_path, _specs())
    journal.close()
    journal.close()  # idempotent
    with pytest.raises(JournalError, match="closed"):
        journal.append({"ev": "late"})


def test_spec_dict_roundtrip_preserves_key():
    spec = CellSpec(
        app="OCEAN", n_processors=8, scale=0.01, seed=42, max_events=1000
    )
    clone = spec_from_dict(spec_to_dict(spec))
    assert clone == spec
    assert clone.key() == spec.key()
