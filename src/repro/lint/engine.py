"""The ``repro-lint`` analysis engine.

An extensible AST-based checker in the spirit of xDECAF's pluggable
detector registry: each :class:`LintRule` encodes one *correctness
contract* of the reproduction — determinism, cache-version discipline,
shared-memory lifecycle, vectorization discipline, spawn safety, float
accounting, import layering — that the dynamic oracles (parity tests,
the Hypothesis fuzz suite) police only after the fact.  The engine walks Python files,
parses each exactly once into a :class:`ParsedModule`, dispatches the
rules whose path scope matches, honours ``# repro-lint:`` suppression
pragmas, filters findings through a checked-in baseline (so pre-existing
debt never blocks CI while *new* debt always does), and renders text or
JSON reports.

Pragma syntax (see ``docs/STATIC_ANALYSIS.md``):

- ``# repro-lint: disable=RPL001`` — trailing on the offending line, or
  on a comment-only line immediately above it; comma-separate several
  rule ids, or use ``all``.
- ``# repro-lint: disable-file=RPL004`` — anywhere in the file,
  suppresses the rule for the whole file.

Baseline contract: ``lint-baseline.json`` entries match findings by
``(rule, path, snippet)`` — *not* by line number, so unrelated edits in
the same file never invalidate the baseline — with a ``count`` bounding
how many identical findings one entry absorbs.  A baseline entry that no
longer matches any finding is *stale* and fails the run: the baseline
may only ever shrink.
"""

from __future__ import annotations

import ast
import io
import json
import re
import tokenize
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .rules.base import LintRule

#: File name of the checked-in baseline, resolved against the scan root.
BASELINE_NAME = "lint-baseline.json"

#: Default scan roots (relative to the repo root) when the CLI is given
#: no explicit paths.  The contracts target the library, not the tests.
DEFAULT_ROOTS = ("src/repro",)

_PRAGMA_RE = re.compile(
    r"#\s*repro-lint:\s*(?P<kind>disable-file|disable)\s*=\s*(?P<rules>[A-Za-z0-9_,\s]+|all)"
)


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str
    snippet: str

    @property
    def fingerprint(self) -> tuple[str, str, str]:
        """Baseline identity: line numbers deliberately excluded."""
        return (self.rule, self.path, self.snippet)

    def to_dict(self) -> dict[str, Any]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
        }


class ParsedModule:
    """One parsed source file plus the context rules need.

    Parsing happens once per file regardless of how many rules inspect
    it; the parent map, pragma table and source lines are shared.
    """

    def __init__(self, path: Path, rel_path: str, source: str) -> None:
        self.path = path
        #: Repo-root-relative POSIX path — the identity findings carry.
        self.rel_path = rel_path
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=rel_path)
        self._parents: dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent
        self._file_disables: set[str] = set()
        self._line_disables: dict[int, set[str]] = {}
        self._collect_pragmas()

    # ------------------------------------------------------------------
    # Pragmas
    # ------------------------------------------------------------------
    def _collect_pragmas(self) -> None:
        try:
            tokens = list(tokenize.generate_tokens(io.StringIO(self.source).readline))
        except tokenize.TokenError:  # pragma: no cover - ast.parse succeeded
            tokens = []
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _PRAGMA_RE.search(token.string)
            if match is None:
                continue
            rules = {part.strip() for part in match.group("rules").split(",") if part.strip()}
            line = token.start[0]
            if match.group("kind") == "disable-file":
                self._file_disables |= rules
                continue
            targets = {line}
            # A comment-only pragma line also covers the statement below.
            stripped = self.lines[line - 1].strip() if line <= len(self.lines) else ""
            if stripped.startswith("#"):
                targets.add(line + 1)
            for target in targets:
                self._line_disables.setdefault(target, set()).update(rules)

    def suppressed(self, rule_id: str, line: int) -> bool:
        """True if a pragma disables ``rule_id`` at ``line``."""
        for scope in (self._file_disables, self._line_disables.get(line, ())):
            if "all" in scope or rule_id in scope:
                return True
        return False

    # ------------------------------------------------------------------
    # AST context helpers
    # ------------------------------------------------------------------
    def parent(self, node: ast.AST) -> ast.AST | None:
        return self._parents.get(node)

    def ancestors(self, node: ast.AST) -> list[ast.AST]:
        """Enclosing nodes from the immediate parent up to the module."""
        chain: list[ast.AST] = []
        current = self._parents.get(node)
        while current is not None:
            chain.append(current)
            current = self._parents.get(current)
        return chain

    def enclosing_function(
        self, node: ast.AST
    ) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return ancestor
        return None

    def enclosing_class(self, node: ast.AST) -> ast.ClassDef | None:
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, ast.ClassDef):
                return ancestor
        return None

    def snippet(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def finding(self, rule_id: str, node: ast.AST, message: str) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            path=self.rel_path,
            line=line,
            col=col + 1,
            rule=rule_id,
            message=message,
            snippet=self.snippet(line),
        )


@dataclass
class LintError:
    """A file the engine could not parse (reported, exit code 2)."""

    path: str
    message: str


@dataclass
class LintReport:
    """Everything one engine run produced."""

    findings: list[Finding]
    new_findings: list[Finding]
    baselined: list[Finding]
    stale_entries: list[dict[str, Any]]
    errors: list[LintError]
    checked_files: int

    @property
    def ok(self) -> bool:
        return not self.new_findings and not self.stale_entries and not self.errors


# ----------------------------------------------------------------------
# File walking
# ----------------------------------------------------------------------
def iter_python_files(paths: list[Path]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated file list."""
    seen: dict[Path, None] = {}
    for path in paths:
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                seen.setdefault(candidate.resolve(), None)
        elif path.suffix == ".py":
            seen.setdefault(path.resolve(), None)
    return sorted(seen)


def _rel_path(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


# ----------------------------------------------------------------------
# Baseline
# ----------------------------------------------------------------------
def load_baseline(path: Path) -> list[dict[str, Any]]:
    """Load baseline entries; a missing file is an empty baseline."""
    if not path.exists():
        return []
    payload = json.loads(path.read_text())
    entries = payload.get("entries", [])
    for entry in entries:
        entry.setdefault("count", 1)
    return entries


def write_baseline(findings: list[Finding], path: Path) -> None:
    """Persist the current findings as the new baseline."""
    counts: Counter[tuple[str, str, str]] = Counter(
        finding.fingerprint for finding in findings
    )
    entries = [
        {"rule": rule, "path": rel, "snippet": snippet, "count": count}
        for (rule, rel, snippet), count in sorted(counts.items())
    ]
    payload = {
        "comment": (
            "repro-lint baseline: pre-existing findings that do not block CI. "
            "This file may only ever shrink; regenerate with "
            "`python -m repro.lint --baseline write` after removing debt."
        ),
        "version": 1,
        "entries": entries,
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def apply_baseline(
    findings: list[Finding], entries: list[dict[str, Any]]
) -> tuple[list[Finding], list[Finding], list[dict[str, Any]]]:
    """Split findings into (new, baselined) and report stale entries."""
    budget: Counter[tuple[str, str, str]] = Counter()
    for entry in entries:
        key = (entry["rule"], entry["path"], entry["snippet"])
        budget[key] += int(entry.get("count", 1))
    new: list[Finding] = []
    baselined: list[Finding] = []
    for finding in sorted(findings):
        if budget.get(finding.fingerprint, 0) > 0:
            budget[finding.fingerprint] -= 1
            baselined.append(finding)
        else:
            new.append(finding)
    stale = [
        {"rule": rule, "path": rel, "snippet": snippet, "unmatched": count}
        for (rule, rel, snippet), count in sorted(budget.items())
        if count > 0
    ]
    return new, baselined, stale


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------
def lint_files(
    files: list[Path], rules: list["LintRule"], root: Path
) -> tuple[list[Finding], list[LintError], int]:
    """Run ``rules`` over ``files``; returns (findings, errors, checked)."""
    findings: list[Finding] = []
    errors: list[LintError] = []
    checked = 0
    for path in files:
        rel = _rel_path(path, root)
        applicable = [rule for rule in rules if rule.applies_to(rel)]
        if not applicable:
            continue
        try:
            module = ParsedModule(path, rel, path.read_text())
        except (SyntaxError, UnicodeDecodeError, OSError) as exc:
            errors.append(LintError(path=rel, message=str(exc)))
            continue
        checked += 1
        for rule in applicable:
            for finding in rule.check(module):
                if not module.suppressed(finding.rule, finding.line):
                    findings.append(finding)
    findings.sort()
    return findings, errors, checked


def run_lint(
    paths: list[Path],
    rules: list["LintRule"],
    root: Path,
    baseline_entries: list[dict[str, Any]] | None = None,
) -> LintReport:
    """Lint ``paths`` and reconcile the findings against the baseline."""
    files = iter_python_files(paths)
    findings, errors, checked = lint_files(files, rules, root)
    entries = baseline_entries if baseline_entries is not None else []
    new, baselined, stale = apply_baseline(findings, entries)
    return LintReport(
        findings=findings,
        new_findings=new,
        baselined=baselined,
        stale_entries=stale,
        errors=errors,
        checked_files=checked,
    )


# ----------------------------------------------------------------------
# Reporters
# ----------------------------------------------------------------------
def format_text(report: LintReport) -> str:
    """Human-readable report: one line per finding plus a summary."""
    lines: list[str] = []
    for error in report.errors:
        lines.append(f"{error.path}: error: {error.message}")
    for finding in report.new_findings:
        lines.append(
            f"{finding.path}:{finding.line}:{finding.col}: "
            f"{finding.rule} {finding.message}"
        )
    for entry in report.stale_entries:
        lines.append(
            f"lint-baseline: stale entry {entry['rule']} {entry['path']} "
            f"({entry['unmatched']} unmatched): {entry['snippet']!r} — the "
            "finding no longer exists; shrink the baseline with "
            "`python -m repro.lint --baseline write`"
        )
    summary = (
        f"checked {report.checked_files} files: "
        f"{len(report.new_findings)} finding(s), "
        f"{len(report.baselined)} baselined, "
        f"{len(report.stale_entries)} stale baseline entr"
        f"{'y' if len(report.stale_entries) == 1 else 'ies'}"
    )
    lines.append(summary)
    return "\n".join(lines)


def format_json(report: LintReport) -> str:
    """Machine-readable report (stable key order) for CI tooling."""
    payload = {
        "checked_files": report.checked_files,
        "findings": [finding.to_dict() for finding in report.new_findings],
        "baselined": [finding.to_dict() for finding in report.baselined],
        "stale_baseline_entries": report.stale_entries,
        "errors": [{"path": e.path, "message": e.message} for e in report.errors],
        "ok": report.ok,
    }
    return json.dumps(payload, indent=2, sort_keys=True)
