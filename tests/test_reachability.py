"""Every ``src/repro`` function earns its place: the reachability ratchet.

``tests/reachability_probe.py`` drives the entry points a user has (the
CLI's ``list``, ``run`` and ``sweep`` commands over every registered
experiment, and every example script) in a fresh interpreter under a
profile hook, and records each function they call.  This test lists the
functions ``src/repro`` defines with :mod:`ast` and matches them to the
recorded ``(file, first line)`` pairs.  It fails when

* a function is neither reached nor allowlisted,
* an allowlisted function is now reached (its entry must go), or
* an allowlisted function no longer exists.

The allowlist, ``tests/reachability_allowlist.json``, maps
``path:qualname`` (path relative to ``src/repro``) to a tag and a reason.
The tags say why no entry point reaches the function:

``oracle``
    a ``tests/oracle`` reference compares against it;
``test-hook``
    only tests read it, to observe state the entry points leave alone;
``benchmark``
    a file under ``benchmarks/`` calls it;
``worker``
    it runs only in a spawned process, which the hook does not follow;
``paper``
    it carries a paper mechanism that no scenario drives
    (``docs/SCENARIOS.md`` names each one and the test that pins it).

Scope: every module except ``repro/lint/``; dunder methods other than
``__init__`` and ``__post_init__`` are left out, and so are abstract
methods, whose body never runs.
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "repro"
PROBE = TESTS / "reachability_probe.py"
ALLOWLIST = TESTS / "reachability_allowlist.json"

TAGS = ("oracle", "test-hook", "benchmark", "worker", "paper")
_KEPT_DUNDERS = ("__init__", "__post_init__")


def _in_scope(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    name = node.name
    if name.startswith("__") and name.endswith("__") and name not in _KEPT_DUNDERS:
        return False
    return not any(
        ast.unparse(decorator).split(".")[-1] == "abstractmethod"
        for decorator in node.decorator_list
    )


def functions_in(source: str, path: str) -> dict[str, tuple[str, int]]:
    """``"path:qualname" -> (path, first line)`` for the functions in one module.

    The first line is the first decorator's line when there is one, as in
    a code object's ``co_firstlineno``.  A nested function's qualname goes
    through ``<locals>``, as ``__qualname__`` does.
    """
    found: dict[str, tuple[str, int]] = {}

    def visit(body: list[ast.stmt], prefix: str) -> None:
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + node.name
                first = node.decorator_list[0].lineno if node.decorator_list else node.lineno
                key = f"{path}:{qualname}"
                if key in found:
                    raise ValueError(f"{key} is defined twice; the ratchet needs unique names")
                if _in_scope(node):
                    found[key] = (path, first)
                visit(node.body, f"{qualname}.<locals>.")
            else:
                for field in ("body", "orelse", "finalbody", "handlers"):
                    visit(getattr(node, field, None) or [], prefix)

    visit(ast.parse(source).body, "")
    return found


def defined_functions(package: Path = PACKAGE) -> dict[str, tuple[str, int]]:
    """Every in-scope function of the package, keyed ``path:qualname``."""
    defined: dict[str, tuple[str, int]] = {}
    for module in sorted(package.rglob("*.py")):
        path = module.relative_to(package).as_posix()
        if path.startswith("lint/"):
            continue
        defined.update(functions_in(module.read_text(encoding="utf-8"), path))
    return defined


def ratchet_failures(
    defined: dict[str, tuple[str, int]],
    reached: set[tuple[str, int]],
    allowlist: dict[str, dict[str, str]],
) -> list[str]:
    """The ratchet's verdict: one message per failure, empty when it holds."""
    failures = []
    for key, location in sorted(defined.items()):
        if location in reached:
            if key in allowlist:
                failures.append(
                    f"{key} is reached now: remove its {allowlist[key]['tag']!r} "
                    "entry from the allowlist"
                )
        elif key not in allowlist:
            failures.append(
                f"{key} is reached by no entry point: delete it, or allowlist it "
                f"with one of {', '.join(TAGS)} and a reason"
            )
    for key in sorted(set(allowlist) - set(defined)):
        failures.append(f"{key} is allowlisted but no longer exists: remove its entry")
    return failures


def load_allowlist() -> dict[str, dict[str, str]]:
    return json.loads(ALLOWLIST.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def reached(tmp_path_factory) -> set[tuple[str, int]]:
    out = tmp_path_factory.mktemp("reachability") / "reached.json"
    env = dict(os.environ)
    src = str(PACKAGE.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, str(PROBE), str(out)],
        env=env,
        cwd=str(tmp_path_factory.mktemp("cwd")),
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert completed.returncode == 0, completed.stderr[-4000:]
    return {(path, line) for path, line in json.loads(out.read_text())}


def test_every_function_is_reached_or_allowlisted(reached):
    failures = ratchet_failures(defined_functions(), reached, load_allowlist())
    assert not failures, "\n".join(failures)


def test_allowlist_entries_carry_a_known_tag_and_a_reason():
    for key, entry in load_allowlist().items():
        assert set(entry) == {"tag", "reason"}, key
        assert entry["tag"] in TAGS, key
        assert entry["reason"].strip(), key


# ----------------------------------------------------------------------
# The ratchet's own failure modes, on synthetic sets
# ----------------------------------------------------------------------
DEFINED = {
    "a.py:used": ("a.py", 1),
    "a.py:Hook.read": ("a.py", 5),
    "a.py:dead": ("a.py", 9),
}


def test_ratchet_holds_when_every_function_is_reached_or_allowlisted():
    allowlist = {"a.py:Hook.read": {"tag": "test-hook", "reason": "tests read it"}}
    reached = {("a.py", 1), ("a.py", 9)}
    assert ratchet_failures(DEFINED, reached, allowlist) == []


def test_ratchet_fails_on_an_unreached_function_not_allowlisted():
    reached = {("a.py", 1), ("a.py", 5)}
    assert ratchet_failures(DEFINED, reached, {}) == [
        "a.py:dead is reached by no entry point: delete it, or allowlist it "
        "with one of oracle, test-hook, benchmark, worker, paper and a reason"
    ]


def test_ratchet_fails_on_an_allowlisted_function_that_is_reached():
    allowlist = {"a.py:used": {"tag": "paper", "reason": "no scenario drives it"}}
    reached = {("a.py", 1), ("a.py", 5), ("a.py", 9)}
    assert ratchet_failures(DEFINED, reached, allowlist) == [
        "a.py:used is reached now: remove its 'paper' entry from the allowlist"
    ]


def test_ratchet_fails_on_an_allowlisted_function_that_is_gone():
    allowlist = {"a.py:gone": {"tag": "oracle", "reason": "an oracle compares it"}}
    reached = {("a.py", 1), ("a.py", 5), ("a.py", 9)}
    assert ratchet_failures(DEFINED, reached, allowlist) == [
        "a.py:gone is allowlisted but no longer exists: remove its entry"
    ]


def test_functions_are_keyed_by_qualname_at_their_first_decorator():
    source = (
        "import abc\n"
        "class A:\n"
        "    @property\n"
        "    def value(self):\n"
        "        def inner():\n"
        "            pass\n"
        "        return inner\n"
        "    def __repr__(self):\n"
        "        return ''\n"
        "    def __init__(self):\n"
        "        pass\n"
        "    @abc.abstractmethod\n"
        "    def step(self):\n"
        "        pass\n"
        "if True:\n"
        "    def guarded():\n"
        "        pass\n"
    )
    assert functions_in(source, "m.py") == {
        "m.py:A.value": ("m.py", 3),
        "m.py:A.value.<locals>.inner": ("m.py", 5),
        "m.py:A.__init__": ("m.py", 10),
        "m.py:guarded": ("m.py", 16),
    }


def test_async_functions_are_listed_and_lambdas_are_not():
    source = (
        "async def fetch():\n"
        "    pass\n"
        "key = lambda row: row\n"
    )
    assert functions_in(source, "m.py") == {"m.py:fetch": ("m.py", 1)}


def test_functions_in_every_branch_of_a_statement_are_listed():
    source = (
        "try:\n"
        "    def in_try():\n"
        "        pass\n"
        "except ImportError:\n"
        "    def in_handler():\n"
        "        pass\n"
        "else:\n"
        "    def in_else():\n"
        "        pass\n"
        "finally:\n"
        "    def in_finally():\n"
        "        pass\n"
        "for _ in ():\n"
        "    def in_loop():\n"
        "        pass\n"
    )
    assert sorted(functions_in(source, "m.py")) == [
        "m.py:in_else",
        "m.py:in_finally",
        "m.py:in_handler",
        "m.py:in_loop",
        "m.py:in_try",
    ]


def test_a_name_defined_twice_is_refused():
    source = (
        "if flag:\n"
        "    def pick():\n"
        "        pass\n"
        "else:\n"
        "    def pick():\n"
        "        pass\n"
    )
    with pytest.raises(ValueError, match="m.py:pick is defined twice"):
        functions_in(source, "m.py")


def test_a_class_inside_a_function_is_keyed_through_locals():
    source = (
        "def factory():\n"
        "    class Local:\n"
        "        def method(self):\n"
        "            pass\n"
        "    return Local\n"
    )
    assert functions_in(source, "m.py") == {
        "m.py:factory": ("m.py", 1),
        "m.py:factory.<locals>.Local.method": ("m.py", 3),
    }


def test_stacked_decorators_key_the_first_line_of_the_first_one():
    source = (
        "import functools\n"
        "@functools.lru_cache(\n"
        "    maxsize=None,\n"
        ")\n"
        "@staticmethod\n"
        "def cached():\n"
        "    pass\n"
    )
    assert functions_in(source, "m.py") == {"m.py:cached": ("m.py", 2)}


def test_dunders_and_abstract_methods_are_out_of_scope():
    source = (
        "from abc import abstractmethod\n"
        "class Rule:\n"
        "    def __post_init__(self):\n"
        "        pass\n"
        "    def __eq__(self, other):\n"
        "        return True\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "    @abstractmethod\n"
        "    def apply(self):\n"
        "        pass\n"
        "    def _private(self):\n"
        "        pass\n"
    )
    assert sorted(functions_in(source, "m.py")) == [
        "m.py:Rule.__post_init__",
        "m.py:Rule._private",
    ]


def test_defined_functions_key_by_package_path_and_skip_lint(tmp_path):
    (tmp_path / "core").mkdir()
    (tmp_path / "lint").mkdir()
    (tmp_path / "core" / "rules.py").write_text("def build():\n    pass\n")
    (tmp_path / "lint" / "engine.py").write_text("def check():\n    pass\n")
    (tmp_path / "top.py").write_text("\n\ndef main():\n    pass\n")
    assert defined_functions(tmp_path) == {
        "core/rules.py:build": ("core/rules.py", 1),
        "top.py:main": ("top.py", 3),
    }


def test_ratchet_reports_every_failure_in_key_order():
    allowlist = {
        "a.py:used": {"tag": "paper", "reason": "no scenario drives it"},
        "a.py:gone": {"tag": "oracle", "reason": "an oracle compares it"},
    }
    reached = {("a.py", 1)}
    assert [failure.split(" ")[0] for failure in ratchet_failures(DEFINED, reached, allowlist)] == [
        "a.py:Hook.read",
        "a.py:dead",
        "a.py:used",
        "a.py:gone",
    ]


def test_a_location_reached_under_another_name_does_not_count():
    # The ratchet matches (file, first line), so a call recorded in another
    # module at the same line number leaves the function unreached.
    reached = {("b.py", 1), ("a.py", 5), ("a.py", 9)}
    assert ratchet_failures(DEFINED, reached, {}) == [
        "a.py:used is reached by no entry point: delete it, or allowlist it "
        "with one of oracle, test-hook, benchmark, worker, paper and a reason"
    ]


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if isinstance(const, type(code)):
            yield from _code_objects(const)


def test_ast_keys_agree_with_the_code_objects_the_hook_records():
    # The probe records (co_filename, co_firstlineno); the ratchet lists
    # functions with ast.  Every in-scope function of the package must have
    # exactly one code object with its qualname at the line ast gives it.
    for module in sorted(PACKAGE.rglob("*.py")):
        path = module.relative_to(PACKAGE).as_posix()
        if path.startswith("lint/"):
            continue
        source = module.read_text(encoding="utf-8")
        compiled = {
            (code.co_qualname, code.co_firstlineno)
            for code in _code_objects(compile(source, str(module), "exec"))
        }
        for key, (_, line) in functions_in(source, path).items():
            qualname = key.split(":", 1)[1]
            assert (qualname, line) in compiled, key


def test_benchmark_and_oracle_reasons_cite_files_that_exist():
    # A ``benchmark`` entry names the file under benchmarks/ that calls the
    # function, an ``oracle`` entry the tests/oracle reference that compares
    # against it; once that file is gone, so is the reason.
    repo = TESTS.parent
    prefixes = {"benchmark": "benchmarks/", "oracle": "tests/oracle/"}
    for key, entry in load_allowlist().items():
        prefix = prefixes.get(entry["tag"])
        if prefix is None:
            continue
        cited = re.findall(rf"{prefix}[\w/]+\.py", entry["reason"])
        assert cited, f"{key}: its reason names no {prefix} file"
        for path in cited:
            assert (repo / path).is_file(), f"{key}: {path} does not exist"
