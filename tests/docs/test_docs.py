"""Documentation checks: code fences must run, internal links must resolve.

The docs promise copy-pasteable commands; these tests keep that promise
honest without executing full experiments:

* every ``python -m repro …`` line in a bash fence is validated against
  the real CLI parser and experiment registry (subcommand, experiment
  name, ``--field`` overrides, ``--grid`` axes);
* every ``python <script>`` / ``pytest <path>`` fence line must point at
  a file that exists;
* every python fence must be syntactically valid;
* every relative markdown link (including ``#anchor`` fragments) must
  resolve to an existing file / heading.

CI runs these in the dedicated docs job next to a live
``python -m repro list`` smoke.
"""

import re
import shlex
from pathlib import Path

import pytest

from repro.__main__ import _parse_grid, _parse_overrides, build_parser
from repro.experiments.registry import get_experiment

REPO_ROOT = Path(__file__).resolve().parents[2]
DOC_FILES = sorted([REPO_ROOT / "README.md", *(REPO_ROOT / "docs").glob("*.md")])

FENCE_RE = re.compile(r"```(\w*)\n(.*?)```", re.DOTALL)
LINK_RE = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")


def doc_ids():
    return [str(path.relative_to(REPO_ROOT)) for path in DOC_FILES]


def fences(path: Path, language: str):
    """All fenced code blocks of one language in a markdown file."""
    return [
        block for lang, block in FENCE_RE.findall(path.read_text(encoding="utf-8"))
        if lang == language
    ]


def command_lines(block: str):
    """Logical command lines of a bash fence (continuations joined,
    comments and prompts stripped)."""
    lines = []
    pending = ""
    for raw in block.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("$ "):
            line = line[2:]
        line = pending + line
        if line.endswith("\\"):
            pending = line[:-1] + " "
            continue
        pending = ""
        lines.append(line)
    return lines


def validate_repro_command(tokens, source):
    """Validate a ``python -m repro`` invocation without running it."""
    parser = build_parser()
    try:
        args, extra = parser.parse_known_args(tokens)
        if args.command == "list":
            assert not extra, f"unexpected arguments for list: {extra}"
            return
        spec = get_experiment(args.experiment)
        if args.command == "run":
            _parse_overrides(spec, extra)
        elif args.command == "sweep":
            _parse_grid(spec, args.grid or [])
            _parse_overrides(spec, extra)
    except SystemExit as error:
        pytest.fail(f"{source}: invalid repro command {' '.join(tokens)!r}: {error}")
    except KeyError as error:
        pytest.fail(f"{source}: unknown experiment in {' '.join(tokens)!r}: {error}")


@pytest.mark.parametrize("doc", doc_ids())
class TestCodeFences:
    def test_repro_cli_lines_parse(self, doc):
        path = REPO_ROOT / doc
        checked = 0
        for block in fences(path, "bash"):
            for line in command_lines(block):
                # Strip env-var prefixes and trailing shell pipelines.
                line = line.split("|")[0].strip()
                tokens = shlex.split(line, comments=True)
                while tokens and "=" in tokens[0] and not tokens[0].startswith("-"):
                    tokens.pop(0)
                if tokens[:3] != ["python", "-m", "repro"]:
                    continue
                validate_repro_command(tokens[3:], doc)
                checked += 1
        if doc in ("docs/SCENARIOS.md", "docs/REPRODUCING.md"):
            assert checked > 5  # the catalogs really are full of commands

    def test_script_and_pytest_paths_exist(self, doc):
        path = REPO_ROOT / doc
        for block in fences(path, "bash"):
            for line in command_lines(block):
                tokens = shlex.split(line.split("|")[0].strip(), comments=True)
                while tokens and "=" in tokens[0] and not tokens[0].startswith("-"):
                    tokens.pop(0)
                if not tokens:
                    continue
                if tokens[0] == "python" and len(tokens) > 1 and tokens[1].endswith(".py"):
                    assert (REPO_ROOT / tokens[1]).is_file(), f"{doc}: missing {tokens[1]}"
                if tokens[0] in ("pytest",) or tokens[:3] == ["python", "-m", "pytest"]:
                    for arg in tokens[1:]:
                        if arg.startswith("-"):
                            continue
                        if arg in ("pytest", "python", "-m"):
                            continue
                        target = REPO_ROOT / arg.rstrip("/")
                        assert target.exists(), f"{doc}: missing pytest target {arg}"

    def test_python_fences_are_valid_syntax(self, doc):
        path = REPO_ROOT / doc
        for index, block in enumerate(fences(path, "python")):
            try:
                compile(block, f"{doc}[python fence {index}]", "exec")
            except SyntaxError as error:
                pytest.fail(f"{doc}: python fence {index} does not parse: {error}")


def github_slug(heading: str) -> str:
    """GitHub's markdown heading → anchor slug (close enough for our docs).

    GitHub keeps underscores in slugs (``paper_scale`` →
    ``paper_scale``), so they must survive here too.
    """
    slug = heading.strip().lower()
    slug = re.sub(r"[`*.,:()§/+]", "", slug)
    slug = slug.replace(" ", "-")
    return re.sub(r"-{2,}", "-", slug).strip("-")


def anchors_of(path: Path):
    text = path.read_text(encoding="utf-8")
    return {
        github_slug(match.group(1))
        for match in re.finditer(r"^#{1,6}\s+(.+)$", text, re.MULTILINE)
    }


@pytest.mark.parametrize("doc", doc_ids())
def test_internal_links_resolve(doc):
    path = REPO_ROOT / doc
    text = path.read_text(encoding="utf-8")
    # Ignore links inside code fences (they are command examples).
    text = FENCE_RE.sub("", text)
    for match in LINK_RE.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        file_part, _, anchor = target.partition("#")
        if file_part:
            resolved = (path.parent / file_part).resolve()
            assert resolved.exists(), f"{doc}: broken link {target}"
        else:
            resolved = path
        if anchor:
            assert resolved.suffix == ".md", f"{doc}: anchor on non-markdown {target}"
            assert anchor in anchors_of(resolved), (
                f"{doc}: broken anchor {target} "
                f"(known: {sorted(anchors_of(resolved))})"
            )


def unscenarioed_mechanisms():
    """``(mechanism, pinned-by cell)`` rows of SCENARIOS.md's table of
    paper mechanisms that no scenario drives."""
    text = (REPO_ROOT / "docs" / "SCENARIOS.md").read_text(encoding="utf-8")
    section = text.split("## Mechanisms no scenario drives", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| ")]
    cells = [[cell.strip() for cell in row.strip("|").split(" | ")] for row in rows[2:]]
    return {github_slug(mechanism): pinned for mechanism, _code, pinned in cells}


def defined_test_names():
    names = set()
    for path in (REPO_ROOT / "tests").rglob("*.py"):
        names.update(
            re.findall(r"^\s*(?:class|def) (\w+)", path.read_text(encoding="utf-8"), re.M)
        )
    return names


@pytest.mark.parametrize("mechanism", sorted(unscenarioed_mechanisms()))
def test_each_unscenarioed_mechanism_is_pinned_by_tests_that_exist(mechanism):
    # The reachability ratchet allowlists these mechanisms as ``paper``
    # because a test pins each one; a renamed or deleted test must not
    # leave the table pointing at nothing.
    pinned = unscenarioed_mechanisms()[mechanism]
    names = defined_test_names()
    tests = []
    for token in re.findall(r"`([^`]+)`", pinned):
        if token.startswith("tests/") and token.endswith(".py"):
            assert (REPO_ROOT / token).is_file(), f"{mechanism}: missing {token}"
            tests.append(token)
            continue
        for part in token.split("::"):
            if part.startswith(("Test", "test_")):
                assert part in names, f"{mechanism}: no test named {part}"
                tests.append(part)
    assert tests, f"{mechanism}: the table names no test"
