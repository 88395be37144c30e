#!/usr/bin/env python
"""CI smoke test for parallel, cached table generation.

Round-trips ``cedar-repro tables`` three ways against a fresh cache
directory:

1. serial (``--jobs 1``, no cache) -- the reference output,
2. cold parallel (``--jobs 4 --cache-dir ...``) -- must be
   byte-identical to serial while populating the cache,
3. warm parallel (same command again, with ``--log campaign.jsonl``)
   -- the tables must open the output byte-identically (telemetry
   appends its summary after them, never perturbs them) and the
   campaign log must be a valid ``cedar-repro/campaign-log/v1``
   document, tagged with the code fingerprint, whose events show every
   cell answered from the cache and none simulated.

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

SCALE = "0.01"
SEED = "1994"


def run_tables(extra: list[str]) -> tuple[str, float]:
    cmd = [
        sys.executable,
        "-m",
        "repro.cli",
        "tables",
        "--scale",
        SCALE,
        "--seed",
        SEED,
        *extra,
    ]
    with WallTimer() as wall:
        out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return out.stdout, wall.elapsed_s


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="cedar-cache-") as cache_dir:
        assert not any(Path(cache_dir).iterdir()), "cache dir must start empty"
        serial, serial_s = run_tables([])
        parallel_flags = ["--jobs", "4", "--cache-dir", cache_dir]
        cold, cold_s = run_tables(parallel_flags)
        log_path = Path(cache_dir) / "campaign.jsonl"
        warm, warm_s = run_tables([*parallel_flags, "--log", str(log_path)])
        header, events = load_campaign_log(log_path)

    cache_hits = sum(1 for e in events if e.get("ev") == "cache_hit")
    simulated = sum(1 for e in events if e.get("ev") == "finish")
    print(
        f"parallel-smoke: serial {serial_s:.2f}s, cold --jobs 4 {cold_s:.2f}s, "
        f"warm {warm_s:.2f}s ({cache_hits} cache hits, {simulated} simulated)"
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
    ]
    failed = [name for name, ok in checks if not ok]
    for name in failed:
        print(f"FAILED check: {name}", file=sys.stderr)
    if not failed:
        print("parallel-smoke: all checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
