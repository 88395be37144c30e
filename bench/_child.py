"""Run the ``repro`` CLI once, as ``bench/run.py`` times it.

Usage::

    python bench/_child.py REPORT TRACE CLI_ARGS...

The shim puts the checkout's ``src`` first on ``sys.path``, imports
``repro.cli``, notes the moment the import completed (``time.monotonic``,
the clock the parent uses to stamp the spawn) in the JSON file REPORT and
then hands CLI_ARGS to the public ``repro.cli.main``.  Nothing else is
changed, so the program runs in its default configuration and is timed
from outside.

With TRACE=1 the shim first wraps a fixed set of public functions under
the names their callers look up (:data:`TARGETS`).  Each wrapped call
becomes a span ``{id, name, cell, start, end, parent, pid}`` held in
memory; a pool worker forked from this process appends its own spans to
``REPORT.workers/<pid>.jsonl``.  After ``main`` returns, the shim reads
the fields the program already returns on every ``RunResult`` of the
sweep, rebuilds the golden-table payload for ``tables`` runs and writes
everything to REPORT.  That post-processing is timed too (``post_s``) so
the parent can take it out of the traced run's wall time.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

#: ``(module, attribute, span name)`` of every wrapped public function.
#: The attribute is replaced on the module its callers read it from, so
#: the CLI's own lookups (``repro.cli.table1``, the executor's
#: ``snapshot_result`` ...) go through the wrapper.
TARGETS = (
    ("repro.cli", "resilient_sweep", "repro.cli.resilient_sweep"),
    ("repro.cli", "table1", "repro.cli.table1"),
    ("repro.cli", "table2", "repro.cli.table2"),
    ("repro.cli", "table3", "repro.cli.table3"),
    ("repro.cli", "table4", "repro.cli.table4"),
    ("repro.cli", "figure3", "repro.cli.figure3"),
    ("repro.core.runner", "run_phases", "repro.core.runner.run_phases"),
    ("repro.parallel.executor", "execute_cells", "repro.parallel.executor.execute_cells"),
    ("repro.parallel.executor", "snapshot_result", "repro.parallel.executor.snapshot_result"),
    ("repro.parallel.cache", "ResultCache.get", "ResultCache.get"),
    ("repro.parallel.cache", "ResultCache.put", "ResultCache.put"),
    ("repro.faults", "run_with_campaign", "repro.faults.run_with_campaign"),
)


def _cell_of(args: tuple, kwargs: dict, name: str) -> str | None:
    """The sweep cell a wrapped call works on, as ``APP/Pn`` (or a key)."""
    if name == "repro.core.runner.run_phases":
        n_proc = args[1] if len(args) > 1 else kwargs["n_processors"]
        return f"{kwargs.get('app_name', 'custom')}/P{n_proc}"
    if name == "repro.faults.run_with_campaign":
        n_proc = args[2] if len(args) > 2 else kwargs["n_processors"]
        return f"{str(args[1]).upper()}/P{n_proc}"
    if name == "repro.parallel.executor.snapshot_result":
        return f"{args[0].app_name}/P{args[0].n_processors}"
    if name == "ResultCache.get":
        return f"key:{args[1][:12]}"
    if name == "ResultCache.put":
        return f"{args[2].app_name}/P{args[2].n_processors}"
    return None


class Tracer:
    """Wraps :data:`TARGETS` and records one span per call."""

    def __init__(self, workers_dir: Path) -> None:
        self.pid = os.getpid()
        self.workers_dir = workers_dir
        self.spans: list[dict] = []
        self.stack: list[str] = []
        self.seq = 0
        #: The last :class:`~repro.core.resilience.SweepOutcome` the CLI
        #: got back from ``resilient_sweep``.
        self.outcome = None

    def install(self) -> None:
        import importlib

        for module_name, attr, name in TARGETS:
            owner = importlib.import_module(module_name)
            if "." in attr:
                class_name, attr = attr.split(".")
                owner = getattr(owner, class_name)
            setattr(owner, attr, self._wrap(getattr(owner, attr), name))

    def _wrap(self, fn, name: str):
        def wrapper(*args, **kwargs):
            self.seq += 1
            span = {
                "id": f"{os.getpid()}:{self.seq}",
                "name": name,
                "cell": _cell_of(args, kwargs, name),
                "parent": self.stack[-1] if self.stack else None,
                "pid": os.getpid(),
            }
            self.stack.append(span["id"])
            span["start"] = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.monotonic()
                self.stack.pop()
            if name == "repro.core.runner.run_phases":
                span["loop_s"] = result.wall_s
            elif name == "ResultCache.get":
                span["hit"] = result is not None
            elif name == "repro.cli.resilient_sweep":
                self.outcome = result
            self._record(span)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _record(self, span: dict) -> None:
        if os.getpid() == self.pid:
            self.spans.append(span)
            return
        # A forked pool worker: its memory dies with it, so the span goes
        # to a per-process file the parent merges after the run.
        self.workers_dir.mkdir(parents=True, exist_ok=True)
        with open(self.workers_dir / f"{os.getpid()}.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps(span) + "\n")

    def capture(self, cli_argv: list[str]) -> dict:
        """What the program returned: per-cell fields and the golden payload."""
        from repro.analyze.race import fingerprint_result
        from repro.core.golden import golden_payload

        outcome = self.outcome
        if outcome is None:
            return {"cells": [], "golden": None, "sweep_ok": False}
        cells = []
        for app, by_config in outcome.results.items():
            for n_proc, result in sorted(by_config.items()):
                cells.append(
                    {
                        "cell": f"{app}/P{n_proc}",
                        "wall_s": result.wall_s,
                        "ct_ns": result.ct_ns,
                        "events": len(result.events),
                        "kernel_stats": dict(result.kernel_stats),
                        "fastpath_modes": dict(result.fastpath_modes),
                        "schedule_hash": result.schedule_hash,
                        "fingerprint": fingerprint_result(result).digest,
                    }
                )
        golden = None
        if cli_argv[:1] == ["tables"] and outcome.ok:
            golden = golden_payload(outcome.results, outcome.scale, outcome.seed)
        return {"cells": cells, "golden": golden, "sweep_ok": outcome.ok}


def main(argv: list[str]) -> int:
    report = Path(argv[0])
    traced = argv[1] == "1"
    cli_argv = argv[2:]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import repro.cli

    imported = time.monotonic()
    if not traced:
        report.write_text(json.dumps({"imported": imported}))
        repro.cli.main(cli_argv)
        return 0

    tracer = Tracer(report.with_suffix(".workers"))
    tracer.install()
    code = 0
    try:
        repro.cli.main(cli_argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    main_end = time.monotonic()
    payload = {"imported": imported, "main_end": main_end, "spans": tracer.spans}
    payload.update(tracer.capture(cli_argv))
    payload["post_s"] = time.monotonic() - main_end
    report.write_text(json.dumps(payload))
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
