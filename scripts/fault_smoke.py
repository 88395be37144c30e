#!/usr/bin/env python
"""CI smoke test for the fault-injection stack.

Runs the bundled tiny campaign (``examples/campaigns/smoke.json``)
against FLO52 on 4 processors at a small scale, checks that faults were
actually injected and reverted, that the degraded run costs more than
a healthy one, and that the fault metrics were emitted.  Exits non-zero
on any violation.  Kept fast (a few seconds) so it can gate
every push.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.apps import PAPER_APPS
from repro.core import run_application
from repro.faults import load_campaign, run_with_campaign
from repro.obs import Observability
from repro.xylem.params import XylemParams

CAMPAIGN = Path(__file__).resolve().parents[1] / "examples" / "campaigns" / "smoke.json"
APP = "FLO52"
P = 4
SCALE = 0.002
SEED = 1994


def main() -> int:
    spec = load_campaign(CAMPAIGN)
    healthy = run_application(
        PAPER_APPS[APP](), P, scale=SCALE, os_params=XylemParams(seed=SEED)
    )
    obs = Observability()
    outcome = run_with_campaign(spec, APP, P, scale=SCALE, seed=SEED, obs=obs)
    ledger = outcome.ledger

    checks = [
        ("faults injected", ledger.injected > 0),
        ("transient fault reverted", ledger.reverted > 0),
        ("every fault applied", ledger.injected == len(spec.faults)),
        ("degraded run costs more", outcome.result.ct_ns > healthy.ct_ns),
        ("faults.injected metric emitted", obs.registry.value("faults.injected") > 0),
    ]
    failed = [name for name, ok in checks if not ok]
    print(
        f"fault-smoke: campaign {spec.name!r} on {APP} P={P}: "
        f"{ledger.injected} injected / {ledger.reverted} reverted, "
        f"healthy ct {healthy.ct_ns} ns -> degraded ct {outcome.result.ct_ns} ns"
    )
    for record in ledger.records:
        print(f"  {record.kind:16s} t={record.applied_ns}ns  {record.note}")
    if failed:
        for name in failed:
            print(f"FAILED check: {name}", file=sys.stderr)
        return 1
    print("fault-smoke: all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
