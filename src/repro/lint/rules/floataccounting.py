"""RPL006 — no bare float ``+=`` bit accounting inside Python loops.

Bit counters are the observable output of the whole pipeline: platform
conservation checks, parity digests and golden-seed hashes all reduce to
"the bits add up, identically, every time".  Accumulating them with a
bare float ``+=`` inside a Python loop has two failure modes: the
numeric one (incremental rounding drifts away from the vectorized
``.sum()`` the other engine computes, breaking bit-for-bit parity
between code paths that iterate in different orders) and the structural
one (the loop itself is usually a sign the accounting should have been a
single vectorized reduction).  The sanctioned shapes are integer
accumulation, a NumPy reduction over the whole column, or collecting
per-iteration terms and reducing once (``sum``/``math.fsum``) after the
loop — which also makes the summation order explicit and auditable.
There is no exemption.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from ..engine import Finding, ParsedModule
from .base import LintRule

_COUNTER_FRAGMENTS = ("bits", "bytes")


def _target_name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _mentions_bits(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        name: str | None = None
        if isinstance(sub, ast.Name):
            name = sub.id
        elif isinstance(sub, ast.Attribute):
            name = sub.attr
        if name is not None and "bits" in name.lower():
            return True
    return False


class FloatAccountingRule(LintRule):
    rule_id = "RPL006"
    title = "bit counters must not accumulate via bare float += in loops"
    paths = (
        "src/repro/ixp/",
        "src/repro/traffic/",
        "src/repro/mitigation/",
    )

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.AugAssign) or not isinstance(node.op, ast.Add):
                continue
            target = _target_name(node.target)
            if target is None:
                continue
            lowered = target.lower()
            is_counter = any(fragment in lowered for fragment in _COUNTER_FRAGMENTS)
            if not is_counter and not _mentions_bits(node.value):
                continue
            if isinstance(node.value, ast.Call) and _target_name(node.value.func) == "int":
                continue
            if not self._inside_loop(module, node):
                continue
            yield module.finding(
                self.rule_id,
                node,
                f"float `{target} +=` inside a loop accumulates rounding "
                "error iteration by iteration; collect the terms and reduce "
                "once (sum/math.fsum/np.sum) or use integer counters",
            )

    @staticmethod
    def _inside_loop(module: ParsedModule, node: ast.AST) -> bool:
        function = module.enclosing_function(node)
        for ancestor in module.ancestors(node):
            if ancestor is function:
                return False
            if isinstance(ancestor, (ast.For, ast.AsyncFor, ast.While)):
                return True
        return False
