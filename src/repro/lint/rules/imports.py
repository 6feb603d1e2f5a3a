"""RPL008 — import a name from the submodule that defines it.

Every package ``__init__`` under ``src/repro`` re-exports its public
names lazily (:mod:`repro._lazy`), so ``from repro.ixp import
SwitchingFabric`` loads ``repro.ixp.fabric`` and what that needs, not the
whole package.  That is the public surface, for tests, examples and
users.  Inside the package a module imports each name from the submodule
that defines it: the import statements then *are* the import graph, a
reader sees which module a name lives in, and no convenience import can
tie a run, or a shard worker, to whatever a package ``__init__`` loads.

A name the package ``__init__`` defines itself (``from .. import
__version__``) and a submodule imported from its package (``from
repro.experiments import city_scale``) are direct imports and pass.

The engine hands a rule one module at a time, and the package
``__init__`` an import goes through need not be among the scanned files
(``python -m repro.lint src/repro/experiments/city_scale.py``), so the
rule reads each such ``__init__`` itself, once per run.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from pathlib import Path, PurePosixPath

from ..engine import Finding, ParsedModule
from .base import LintRule


def _package_names(init: Path) -> tuple[set[str], dict[str, str]]:
    """``(defined, exported)`` names of a package ``__init__``.

    ``defined`` are the names the ``__init__`` binds itself; ``exported``
    maps each re-exported name to its defining submodule, read from an
    eager ``from .sub import name`` or a lazy ``_EXPORTS`` table.
    """
    defined: set[str] = set()
    exported: dict[str, str] = {}
    for node in ast.parse(init.read_text(), filename=str(init)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            for alias in node.names:
                exported[alias.asname or alias.name] = node.module
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for bound in ast.walk(target):
                    if isinstance(bound, ast.Name):
                        defined.add(bound.id)
            if (
                isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "_EXPORTS" for t in targets)
                and isinstance(node.value, ast.Dict)
            ):
                for key, value in zip(node.value.keys, node.value.values):
                    if isinstance(key, ast.Constant) and isinstance(value, ast.Constant):
                        exported[str(key.value)] = str(value.value)
    return defined, exported


class SubmoduleImportRule(LintRule):
    rule_id = "RPL008"
    title = "import names from their defining submodule, not a package __init__"
    paths = ("src/repro/",)

    def __init__(self) -> None:
        self._packages: dict[Path, tuple[set[str], dict[str, str]]] = {}

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        parts = PurePosixPath(module.rel_path).parts
        src_dir = module.path.resolve().parents[len(parts) - 2]
        # The file's own package, for ``__init__.py`` and plain modules alike.
        own = list(parts[1:-1])
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level:
                if node.level > len(own):
                    continue
                target = own[: len(own) - node.level + 1]
                target += node.module.split(".") if node.module else []
            else:
                target = (node.module or "").split(".")
                if target[0] != "repro":
                    continue
            package_dir = src_dir.joinpath(*target)
            init = package_dir / "__init__.py"
            if not init.is_file():
                continue
            if init not in self._packages:
                self._packages[init] = _package_names(init)
            defined, exported = self._packages[init]
            package = ".".join(target)
            for alias in node.names:
                name = alias.name
                if (
                    name in defined
                    or (package_dir / f"{name}.py").is_file()
                    or (package_dir / name / "__init__.py").is_file()
                ):
                    continue
                source = exported.get(name)
                where = (
                    f"`{package}.{source}`" if source else "the submodule that defines it"
                )
                yield module.finding(
                    self.rule_id,
                    node,
                    f"`{name}` is imported through the package `{package}`; "
                    f"import it from {where}",
                )
