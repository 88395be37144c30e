"""Lazily resolved public names for the package ``__init__`` modules.

A package lists where each of its public names lives and resolves a
name on first access (PEP 562), so importing the package imports none
of its submodules: a process loads only the modules it uses.
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Callable
from typing import Any

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: dict[str, tuple[str, ...]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The module ``__getattr__`` and ``__dir__`` of *package*.

    *exports* maps each submodule, relative to *package*, to the public
    names it defines.  The first access to a name imports its submodule
    and keeps the value in the package namespace, so later accesses are
    plain attribute lookups.
    """
    owners = {name: module for module, names in exports.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        module = owners.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{module}"), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *owners})

    return __getattr__, __dir__
