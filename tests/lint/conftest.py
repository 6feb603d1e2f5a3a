"""Shared helpers for the repro-lint test suite.

Fixture files live in ``tests/lint/fixtures/``; tests copy them into a
synthetic repo tree under ``tmp_path`` (so rule path scopes apply) and
run the engine over it.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import default_rules, run_lint

FIXTURES = Path(__file__).parent / "fixtures"

#: fixture file → destination inside the synthetic repo, chosen so the
#: rule under test is in scope for the file.
DESTINATIONS = {
    "rpl001_bad.py": "src/repro/traffic/rpl001_bad.py",
    "rpl001_good.py": "src/repro/traffic/rpl001_good.py",
    "rpl002_bad.py": "src/repro/ixp/rpl002_bad.py",
    "rpl002_good.py": "src/repro/ixp/rpl002_good.py",
    "rpl003_bad.py": "src/repro/traffic/rpl003_bad.py",
    "rpl003_good.py": "src/repro/traffic/rpl003_good.py",
    "rpl004_bad.py": "src/repro/mitigation/rpl004_bad.py",
    "rpl004_good.py": "src/repro/mitigation/rpl004_good.py",
    "rpl005_bad.py": "src/repro/experiments/rpl005_bad.py",
    "rpl005_good.py": "src/repro/experiments/rpl005_good.py",
    "rpl006_bad.py": "src/repro/ixp/rpl006_bad.py",
    "rpl006_good.py": "src/repro/ixp/rpl006_good.py",
    "rpl008_bad.py": "src/repro/experiments/rpl008_bad.py",
    "rpl008_good.py": "src/repro/experiments/rpl008_good.py",
    # RPL008 reads the package __init__s an import goes through.
    "rpl008_root_init.py": "src/repro/__init__.py",
    "rpl008_ixp_init.py": "src/repro/ixp/__init__.py",
    "rpl008_ixp_fabric.py": "src/repro/ixp/fabric.py",
    # Both RPL001 (ixp/) and RPL004 (ixp/delivery.py) apply here, so the
    # pragma fixture can prove suppression of two different rules.
    "pragmas.py": "src/repro/ixp/delivery.py",
}


@pytest.fixture
def lint_tree(tmp_path):
    """Build a synthetic repo from fixture names; returns a runner."""

    def build(*names: str):
        (tmp_path / "pyproject.toml").write_text("")
        for name in names:
            dest = tmp_path / DESTINATIONS[name]
            dest.parent.mkdir(parents=True, exist_ok=True)
            dest.write_text((FIXTURES / name).read_text())
        return tmp_path

    return build


@pytest.fixture
def lint_run():
    """Run the default rules over a synthetic repo's ``src`` tree."""

    def run(root: Path, baseline_entries=None):
        return run_lint(
            [root / "src"], default_rules(), root, baseline_entries=baseline_entries
        )

    return run
