"""Cached, pooled and crash-safe sweep execution.

``repro.parallel`` runs the paper's sweep-shaped experiments through
one executor, :func:`~repro.parallel.executor.execute_cells`, behind a
content-addressed on-disk result cache.  The executor takes one of
three routes, chosen from its inputs alone:

* **in-process** -- ``jobs == 1`` (and no host-chaos plan or cell
  deadline): each cell runs in the calling process;
* **pool** -- worker processes that heartbeat, and that the coordinator
  kills, respawns and speculates around;
* **journaled** -- either of the above with a write-ahead journal
  (``--checkpoint``): SIGINT/SIGTERM checkpoint the campaign and
  ``cedar-repro resume`` finishes it.

Every route runs the same :func:`~repro.parallel.executor.run_cell`, so
the tables are byte-identical whichever route ran them; warm reruns
skip simulation entirely.  A cell's result is the runner's own
:class:`~repro.core.runner.RunResult`, a plain record that pickles
as it is for the pool and the cache.

* :class:`~repro.parallel.executor.CellSpec` /
  :func:`~repro.parallel.executor.run_cell` -- one cell and its
  execution, the one way the package simulates.
* :func:`~repro.parallel.executor.execute_cells` -- the executor: cache
  serve, per-cell failure isolation, deterministic-backoff retries,
  health checks, speculation and checkpointing.
  :func:`~repro.core.resilience.resilient_sweep` is its sweep-shaped
  entry point.
* :class:`~repro.parallel.cache.ResultCache` /
  :func:`~repro.parallel.cache.cell_key` -- the cache and its
  fingerprinting rules.
* :mod:`repro.parallel.journal` / :mod:`repro.parallel.durable` -- the
  write-ahead journal, and the recovery policy, worker heartbeats and
  recovery ledger.
"""

from repro.parallel.cache import (
    CACHE_SCHEMA,
    ResultCache,
    cell_key,
    code_fingerprint,
    default_cache_dir,
)
from repro.parallel.durable import (
    RECOVERY_REPORT_SCHEMA,
    CampaignInterrupted,
    DurablePolicy,
    RecoveryLedger,
    backoff_s,
    save_recovery_report,
)
from repro.parallel.executor import CellSpec, execute_cells, run_cell
from repro.parallel.journal import (
    JOURNAL_SCHEMA,
    CampaignJournal,
    JournalError,
    JournalMismatchError,
    JournalState,
    load_journal,
)

__all__ = [
    "CACHE_SCHEMA",
    "JOURNAL_SCHEMA",
    "RECOVERY_REPORT_SCHEMA",
    "CampaignInterrupted",
    "CampaignJournal",
    "CellSpec",
    "DurablePolicy",
    "JournalError",
    "JournalMismatchError",
    "JournalState",
    "RecoveryLedger",
    "ResultCache",
    "backoff_s",
    "cell_key",
    "code_fingerprint",
    "default_cache_dir",
    "execute_cells",
    "load_journal",
    "run_cell",
    "save_recovery_report",
]
