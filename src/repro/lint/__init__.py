"""repro-lint: static enforcement of the reproduction's correctness contracts.

The dynamic oracles — sharded-vs-serial parity, the Hypothesis state
machines, golden-seed digests — catch contract violations *after* a
simulation runs.  This package catches the same violation classes at
review time, from the AST alone.  See ``docs/STATIC_ANALYSIS.md`` for
the rule catalog and ``python -m repro.lint --help`` for the CLI.
"""

from __future__ import annotations

from .engine import (
    BASELINE_NAME,
    DEFAULT_ROOTS,
    Finding,
    LintReport,
    ParsedModule,
    apply_baseline,
    format_json,
    format_text,
    iter_python_files,
    lint_files,
    load_baseline,
    run_lint,
    write_baseline,
)
from .rules import default_rules
from .rules.base import LintRule

__all__ = [
    "BASELINE_NAME",
    "DEFAULT_ROOTS",
    "Finding",
    "LintReport",
    "LintRule",
    "ParsedModule",
    "apply_baseline",
    "default_rules",
    "format_json",
    "format_text",
    "iter_python_files",
    "lint_files",
    "load_baseline",
    "run_lint",
    "write_baseline",
]
