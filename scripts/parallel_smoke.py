#!/usr/bin/env python
"""CI smoke test for the sweep executor's routes.

Round-trips ``cedar-repro tables`` four ways against a fresh cache
directory:

1. in-process (``--jobs 1``, no cache) -- the reference output,
2. cold pool (``--jobs 4 --cache-dir ...``) -- must be byte-identical
   to the reference while populating the cache,
3. warm pool (same command again, with ``--log campaign.jsonl``) -- the
   tables must open the output byte-identically (telemetry appends its
   summary after them, never perturbs them) and the campaign log must
   be a valid ``cedar-repro/campaign-log/v1`` document, tagged with the
   code fingerprint, whose events show every cell answered from the
   cache and none simulated,
4. journaled (``--checkpoint JOURNAL``) -- byte-identical to the
   reference, with a ``done`` record in the journal for every one of
   the 25 cells;

then runs the ``examples/campaigns/smoke.json`` fault campaign at
``--jobs 1`` and ``--jobs 2``, which must print identical output.

The cache is judged by what the program logged, not by wall time, so
the gate holds however fast the simulation gets.  Exits non-zero on any
mismatch.  The scale is kept small so the cold pass stays in
CI-friendly territory.
"""

from __future__ import annotations

import subprocess
import sys
import tempfile
from pathlib import Path

from repro.obs.campaign import CAMPAIGN_LOG_SCHEMA, load_campaign_log
from repro.obs.hostclock import WallTimer
from repro.parallel import load_journal

SCALE = "0.01"
SEED = "1994"
CELLS = 25
SMOKE_CAMPAIGN = (
    Path(__file__).resolve().parents[1] / "examples" / "campaigns" / "smoke.json"
)


def run_cli(args: list[str]) -> tuple[str, float]:
    cmd = [sys.executable, "-m", "repro.cli", *args]
    with WallTimer() as wall:
        out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return out.stdout, wall.elapsed_s


def run_tables(extra: list[str]) -> tuple[str, float]:
    return run_cli(["tables", "--scale", SCALE, "--seed", SEED, *extra])


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="cedar-cache-") as cache_dir:
        assert not any(Path(cache_dir).iterdir()), "cache dir must start empty"
        serial, serial_s = run_tables([])
        parallel_flags = ["--jobs", "4", "--cache-dir", cache_dir]
        cold, cold_s = run_tables(parallel_flags)
        log_path = Path(cache_dir) / "campaign.jsonl"
        warm, warm_s = run_tables([*parallel_flags, "--log", str(log_path)])
        header, events = load_campaign_log(log_path)
        journal_path = Path(cache_dir) / "tables.journal"
        journaled, journaled_s = run_tables(["--checkpoint", str(journal_path)])
        journal = load_journal(journal_path)
    campaign = ["campaign", str(SMOKE_CAMPAIGN), "--scale", SCALE]
    campaign_1, _ = run_cli([*campaign, "--jobs", "1"])
    campaign_2, _ = run_cli([*campaign, "--jobs", "2"])

    cache_hits = sum(1 for e in events if e.get("ev") == "cache_hit")
    simulated = sum(1 for e in events if e.get("ev") == "finish")
    print(
        f"parallel-smoke: serial {serial_s:.2f}s, cold --jobs 4 {cold_s:.2f}s, "
        f"warm {warm_s:.2f}s ({cache_hits} cache hits, {simulated} simulated), "
        f"--checkpoint {journaled_s:.2f}s ({len(journal.done)} done records)"
    )
    checks = [
        ("serial output is non-trivial", "Table 1" in serial),
        ("cold parallel output byte-identical to serial", cold == serial),
        ("warm tables open byte-identically", warm.startswith(serial)),
        ("campaign summary follows the tables", "campaign" in warm[len(serial):]),
        ("campaign log has the v1 schema", header.get("schema") == CAMPAIGN_LOG_SCHEMA),
        ("campaign log header is fingerprinted", bool(header.get("code_fingerprint"))),
        ("campaign log header carries the seed", header.get("seed") == int(SEED)),
        (
            "every cell answered from cache in the warm pass",
            cache_hits == header.get("n_cells"),
        ),
        ("no cell simulated in the warm pass", simulated == 0),
        ("journaled output byte-identical to serial", journaled == serial),
        (f"journal holds {CELLS} done records", len(journal.done) == CELLS),
        ("fault campaign output is non-trivial", "smoke" in campaign_1),
        (
            "fault campaign --jobs 2 output identical to --jobs 1",
            campaign_2 == campaign_1,
        ),
    ]
    failed = [name for name, ok in checks if not ok]
    for name in failed:
        print(f"FAILED check: {name}", file=sys.stderr)
    if not failed:
        print("parallel-smoke: all checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
