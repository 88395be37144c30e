"""Golden trace: the ``trace`` command's output file, pinned by digest.

``trace_v1.json`` holds the command line (``scripts/refresh_golden.py``'s
``TRACE_ARGV``) and the SHA-256 of the JSON-lines file it writes: the
header, then every recorded event with its type, 50 ns timestamp,
processor, task and payload.  Any change to what the monitor records,
or to how a trace is written, shows up here byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.cli import main

TRACE_PATH = Path(__file__).parent / "trace_v1.json"


def test_trace_file_matches_its_pinned_digest(tmp_path, capsys):
    pinned = json.loads(TRACE_PATH.read_text())
    out = tmp_path / "trace.jsonl"
    main([*pinned["argv"], "-o", str(out)])
    assert f"to {out}" in capsys.readouterr().out
    assert hashlib.sha256(out.read_bytes()).hexdigest() == pinned["sha256"]
