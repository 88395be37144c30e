#!/usr/bin/env python
"""Regenerate the golden baselines (``tests/golden/tables_v1.json``,
``tests/golden/figures_v1.json`` and ``tests/golden/trace_v1.json``).

Run this after an *intentional* model change, review the JSON diff to
confirm every shifted number is expected, and commit the result.  The
figures baseline (the user-time breakdowns of Figures 5-9) and the
SHA-256 of the file the ``trace`` command writes are written beside
``--output``.  The sweep goes through
:func:`repro.core.resilience.resilient_sweep`, so a warm result cache
makes a refresh near-instant.

Usage::

    PYTHONPATH=src python scripts/refresh_golden.py [--jobs N] [--cache-dir DIR]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from repro.cli import main as cli_main
from repro.core import reference
from repro.core.golden import golden_figures_payload, golden_payload, save_golden
from repro.core.resilience import resilient_sweep
from repro.parallel import default_cache_dir

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "tests" / "golden" / "tables_v1.json"

#: File name of the Figures 5-9 baseline, written beside ``--output``.
FIGURES_NAME = "figures_v1.json"

#: File name of the pinned ``trace`` output digest, written beside ``--output``.
TRACE_NAME = "trace_v1.json"

#: The ``trace`` command whose output file the digest pins (``-o FILE``
#: is appended).
TRACE_ARGV = ["trace", "flo52", "8", "--scale", "0.005"]

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

    figures = golden_figures_payload(outcome.results, scale=SCALE, seed=SEED)
    figures_path = args.output.parent / FIGURES_NAME
    save_golden(figures, figures_path)
    n_rows = sum(len(rows) for rows in figures["tables"].values())
    print(f"wrote {figures_path} ({len(figures['tables'])} apps, {n_rows} rows)")

    trace_path = args.output.parent / TRACE_NAME
    digest = trace_digest()
    trace_path.write_text(json.dumps({"argv": TRACE_ARGV, "sha256": digest}, indent=1) + "\n")
    print(f"wrote {trace_path} (sha256 {digest[:12]}...)")
    return 0


def trace_digest() -> str:
    """SHA-256 of the file ``cedar-repro`` writes for :data:`TRACE_ARGV`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.jsonl"
        with contextlib.redirect_stdout(io.StringIO()):
            cli_main([*TRACE_ARGV, "-o", str(path)])
        return hashlib.sha256(path.read_bytes()).hexdigest()


if __name__ == "__main__":
    raise SystemExit(main())
