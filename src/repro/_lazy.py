"""PEP 562 re-exports: a package names its public API without importing it.

``__getattr__ = lazy_exports(__name__, {"Name": "package.module", ...})``
in a package's ``__init__`` makes ``package.Name`` and ``from package
import Name`` import ``package.module`` on first use and not before — so
``import repro.cli`` loads what a default ``run`` executes, not every
matcher, baseline and report helper the packages advertise
(``tests/test_surface.py`` pins the set).
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Mapping

__all__ = ["lazy_exports"]


def lazy_exports(package: str, table: Mapping[str, str]) -> Callable[[str], object]:
    """A module ``__getattr__`` resolving each name in ``table`` from the
    module it maps to, caching it as a plain attribute of ``package``."""

    def __getattr__(name: str) -> object:
        module = table.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
