"""RPL002 — every rule-set mutation must bump ``rules_version``.

``PortQosPolicy.rules_version`` keys two caches: the compiled
:class:`~repro.ixp.ruleindex.RuleMatchIndex` and the fabric's
:class:`~repro.ixp.delivery.FabricDeliveryPlan`.  A mutation of
``self._rules`` / ``self._sorted_rules`` that forgets the bump leaves
both caches silently serving a stale rule set — the exact bug class the
``RuleStateMachine`` fuzz found dynamically in PR 6 (and its inverse:
no-op mutations that bumped spuriously).  This rule checks the
invariant *structurally*, on any class that manages a ``_version``
counter next to a ``_rules`` list:

- a method that mutates the rule containers (``_rules`` or
  ``_sorted_rules``) must bump ``self._version`` in its own body or call
  an in-class method that (transitively) does;
- a private mutator helper is exempt iff every in-class caller is
  bump-reachable (the ``_attach`` pattern: callers end with
  ``_resort()``);
- ``__init__`` / ``__setstate__`` construct rather than mutate.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from ..engine import Finding, ParsedModule
from .base import LintRule, is_self_attribute, walk_scope

_RULE_CONTAINERS = {"_rules", "_sorted_rules"}
_VERSION_ATTRS = {"_version"}
_LIST_MUTATORS = {"append", "extend", "insert", "pop", "remove", "clear", "sort", "reverse"}
_CONSTRUCTORS = {"__init__", "__new__", "__setstate__"}


def _mutations(method: ast.FunctionDef | ast.AsyncFunctionDef) -> list[ast.AST]:
    """Nodes in ``method`` that mutate ``self._rules``/``self._sorted_rules``."""
    sites: list[ast.AST] = []
    for node in walk_scope(method):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if is_self_attribute(target, _RULE_CONTAINERS):
                    sites.append(node)
                elif isinstance(target, ast.Subscript) and is_self_attribute(
                    target.value, _RULE_CONTAINERS
                ):
                    sites.append(node)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript) and is_self_attribute(
                    target.value, _RULE_CONTAINERS
                ):
                    sites.append(node)
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _LIST_MUTATORS
                and is_self_attribute(func.value, _RULE_CONTAINERS)
            ):
                sites.append(node)
    return sites


def _bumps_version(method: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for node in walk_scope(method):
        if isinstance(node, ast.AugAssign) and is_self_attribute(
            node.target, _VERSION_ATTRS
        ):
            return True
        if isinstance(node, ast.Assign) and any(
            is_self_attribute(target, _VERSION_ATTRS) for target in node.targets
        ):
            return True
    return False


def _self_calls(method: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    calls: set[str] = set()
    for node in walk_scope(method):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "self"
        ):
            calls.add(node.func.attr)
    return calls


def _references_version(cls: ast.ClassDef) -> bool:
    for node in ast.walk(cls):
        if is_self_attribute(node, _VERSION_ATTRS):
            return True
    return False


class VersionBumpRule(LintRule):
    rule_id = "RPL002"
    title = "rule-set mutations must bump rules_version"
    paths = ("src/repro/",)

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        for cls in ast.walk(module.tree):
            if not isinstance(cls, ast.ClassDef) or not _references_version(cls):
                continue
            methods = {
                item.name: item
                for item in cls.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            calls = {name: _self_calls(method) for name, method in methods.items()}
            # Transitive closure of "bumps self._version".
            bumping = {name for name, method in methods.items() if _bumps_version(method)}
            changed = True
            while changed:
                changed = False
                for name, callees in calls.items():
                    if name not in bumping and callees & bumping:
                        bumping.add(name)
                        changed = True
            for name, method in methods.items():
                if name in _CONSTRUCTORS or name in bumping:
                    continue
                sites = _mutations(method)
                if not sites:
                    continue
                callers = [
                    caller for caller, callees in calls.items() if name in callees
                ]
                if callers and all(caller in bumping for caller in callers):
                    # Mutator helper: every call path ends in a bump.
                    continue
                for site in sites:
                    yield module.finding(
                        self.rule_id,
                        site,
                        f"`{cls.name}.{name}` mutates the rule containers "
                        "without bumping self._version — the compiled index "
                        "and cached delivery plan will serve stale rules",
                    )
