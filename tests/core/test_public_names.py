"""The packages' public names resolve on first access, and only then.

Every package ``__init__`` lists where its names live and imports a
name's module when the name is first read, so importing a package
loads none of its submodules.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

LAZY_PACKAGES = (
    "repro",
    "repro.analyze",
    "repro.core",
    "repro.faults",
    "repro.hardware",
    "repro.hpm",
    "repro.obs",
    "repro.parallel",
    "repro.runtime",
    "repro.sim",
    "repro.xylem",
)


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_every_public_name_resolves(name):
    package = importlib.import_module(name)
    for attr in package.__all__:
        assert hasattr(package, attr), f"{name}.{attr}"
    assert set(package.__all__) <= set(dir(package))
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        package.not_a_name  # noqa: B018


def test_importing_the_packages_loads_none_of_their_modules():
    code = (
        "import importlib, sys\n"
        f"for name in {LAZY_PACKAGES!r}:\n"
        "    importlib.import_module(name)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'repro'))"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == repr(sorted([*LAZY_PACKAGES, "repro._lazy"]))
