"""The real tree must satisfy every static contract (the CI gate, as a test).

This is also the regression lock for the forward fixes this layer drove:
the RPL006 float-accounting rewrites in ``ixp/delivery.py`` (running
``+=`` replaced by collect-terms + one ordered reduction), the one place
delivery accounting lives.  Re-introducing any such pattern
turns up here as a non-baselined finding.
"""

from __future__ import annotations

from pathlib import Path

from repro.lint import BASELINE_NAME, default_rules, load_baseline, run_lint

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_src_tree_is_clean_against_baseline():
    entries = load_baseline(REPO_ROOT / BASELINE_NAME)
    report = run_lint(
        [REPO_ROOT / "src" / "repro"], default_rules(), REPO_ROOT,
        baseline_entries=entries,
    )
    assert report.errors == []
    assert report.new_findings == [], [
        f"{f.path}:{f.line}: {f.rule} {f.message}" for f in report.new_findings
    ]
    assert report.stale_entries == [], report.stale_entries


def test_baseline_is_empty_and_may_only_shrink():
    # The tree currently carries zero lint debt.  If you are reading this
    # because the assert fired: fix the finding, don't grow the baseline.
    entries = load_baseline(REPO_ROOT / BASELINE_NAME)
    assert entries == []


def test_float_accounting_fix_sites_stay_fixed():
    # The exact seams the RPL006 forward fixes rewrote: platform totals
    # and shaper accounting reduce once, after their loops.
    for rel in ("src/repro/ixp/fabric.py", "src/repro/ixp/qos.py", "src/repro/ixp/delivery.py"):
        source = (REPO_ROOT / rel).read_text()
        assert "report.offered_bits +=" not in source, rel
        assert "shaped_passed +=" not in source, rel
    delivery = (REPO_ROOT / "src/repro/ixp/delivery.py").read_text()
    assert "float(sum(offered_terms))" in delivery
    assert "float(sum(passed_terms))" in delivery
