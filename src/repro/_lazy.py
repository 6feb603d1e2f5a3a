"""Lazy package re-exports (PEP 562).

Each package ``__init__`` names the submodule that defines every name it
re-exports, in one ``{name: submodule}`` table.  :func:`lazy_exports`
turns that table into the package's module-level ``__getattr__`` and
``__dir__``, so ``from repro.ixp import SwitchingFabric`` imports
``repro.ixp.fabric`` (and what it needs) on first use, not the whole
package.  Inside ``src/repro`` modules import from the defining submodule
directly (lint rule RPL008); the re-exports are the public surface.
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Callable, Mapping
from typing import Any


def lazy_exports(
    package: str, exports: Mapping[str, str]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for ``package``, re-exporting ``exports``.

    ``exports`` maps each public name to the submodule, relative to
    ``package``, that defines it.  A resolved name is stored in the
    package's namespace, so each name goes through ``__getattr__`` once.
    """

    def __getattr__(name: str) -> Any:
        try:
            submodule = exports[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(f"{package}.{submodule}"), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted({*vars(sys.modules[package]), *exports})

    return __getattr__, __dir__
