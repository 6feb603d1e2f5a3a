"""RPL004 — no per-row Python loops over FlowTable columns in the data plane.

The whole performance story of the reproduction (PR 1's columnar
FlowTable, PR 4's batched delivery, PR 5's compiled rule index) rests on
the data-plane modules never iterating rows in Python: one stray
``for port in table.dst_port`` re-introduces the O(rows) interpreter
loop the benchmarks exist to keep out, and at city scale (hundreds of
thousands of rows per interval) it dominates the interval cost.  This
rule flags ``for`` loops and comprehensions whose iterable reaches into
per-row data — a FlowTable column attribute, ``.to_records()``, or a
``zip`` over columns — inside ``ixp/qos.py``, ``ixp/fabric.py``,
``ixp/delivery.py``, ``ixp/ruleindex.py`` and ``mitigation/``, in the
table-only trace layer: ``traffic/trace.py``, ``traffic/ipfix.py``,
``analysis/collateral.py`` and ``experiments/port_distribution.py``, and
in ``experiments/functionality.py`` and ``core/telemetry.py``.  A
literal tuple or list display iterates its fixed elements, not rows, so
it is never flagged.  There is no exemption: per-record reference loops
belong in ``tests/oracle``, not in these modules.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from ..engine import Finding, ParsedModule
from .base import LintRule

#: FlowTable column attributes plus the derived per-row vectors.
_COLUMN_ATTRS = {
    "src_ip",
    "dst_ip",
    "protocol",
    "src_port",
    "dst_port",
    "start",
    "duration",
    "bytes",
    "packets",
    "ingress_asn",
    "egress_asn",
    "is_attack",
    "bits",
}


def _touches_rows(iterable: ast.AST) -> str | None:
    """Why ``iterable`` walks per-row data, or ``None`` if it doesn't."""
    if isinstance(iterable, (ast.Tuple, ast.List)) and not any(
        isinstance(element, ast.Starred) for element in iterable.elts
    ):
        # `for column in (table.src_ip, table.dst_ip)` visits two columns,
        # not their rows.
        return None
    for node in ast.walk(iterable):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "to_records":
                return "iterates `.to_records()` materialised rows"
        if isinstance(node, ast.Attribute) and node.attr in _COLUMN_ATTRS:
            # `table.bits` as (part of) the iterable: a per-row walk.
            return f"iterates the `{node.attr}` column row by row"
    return None


class VectorizationRule(LintRule):
    rule_id = "RPL004"
    title = "data-plane modules must not loop over FlowTable rows in Python"
    paths = (
        "src/repro/ixp/qos.py",
        "src/repro/ixp/fabric.py",
        "src/repro/ixp/delivery.py",
        "src/repro/ixp/ruleindex.py",
        "src/repro/mitigation/*.py",
        "src/repro/traffic/trace.py",
        "src/repro/traffic/ipfix.py",
        "src/repro/analysis/collateral.py",
        "src/repro/experiments/port_distribution.py",
        "src/repro/experiments/functionality.py",
        "src/repro/core/telemetry.py",
    )

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            iterables: list[ast.AST] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iterables.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                iterables.extend(gen.iter for gen in node.generators)
            for iterable in iterables:
                reason = _touches_rows(iterable)
                if reason is None:
                    continue
                yield module.finding(
                    self.rule_id,
                    node,
                    f"per-row Python loop in a data-plane module ({reason}); "
                    "use vectorized column operations",
                )
