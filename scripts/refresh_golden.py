#!/usr/bin/env python
"""Regenerate the golden-table baseline (``tests/golden/tables_v1.json``).

Run this after an *intentional* model change, review the JSON diff to
confirm every shifted number is expected, and commit the result.  The
sweep goes through :func:`repro.core.resilience.resilient_sweep`, so a warm
result cache makes a refresh near-instant.

Usage::

    PYTHONPATH=src python scripts/refresh_golden.py [--jobs N] [--cache-dir DIR]
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.core import reference
from repro.core.golden import golden_payload, save_golden
from repro.core.resilience import resilient_sweep
from repro.parallel import default_cache_dir

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "tests" / "golden" / "tables_v1.json"

#: The benchmark point the baseline freezes.
SCALE = 0.02
SEED = 1994


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=1, help="worker processes")
    parser.add_argument(
        "--cache-dir",
        default=None,
        help=f"result cache directory (default: {default_cache_dir()})",
    )
    parser.add_argument(
        "--output", default=GOLDEN_PATH, type=Path, help="where to write the baseline"
    )
    args = parser.parse_args()

    cache_dir = args.cache_dir if args.cache_dir is not None else default_cache_dir()
    outcome = resilient_sweep(
        reference.APPS,
        scale=SCALE,
        seed=SEED,
        jobs=args.jobs,
        cache_dir=cache_dir,
    )
    if not outcome.ok:
        for failure in outcome.failures:
            print(
                f"FAILED cell {failure.app} P={failure.n_processors}: "
                f"{failure.error_type}: {failure.message}"
            )
        return 1

    payload = golden_payload(outcome.results, scale=SCALE, seed=SEED)
    args.output.parent.mkdir(parents=True, exist_ok=True)
    save_golden(payload, args.output)
    n_rows = sum(len(rows) for rows in payload["tables"].values())
    print(f"wrote {args.output} ({len(payload['tables'])} tables, {n_rows} rows)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
