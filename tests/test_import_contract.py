"""The import graph matches what a run executes.

Package ``__init__``s re-export lazily and the experiment registry imports
a driver only when its config class or runner is looked up, so a run
loads the modules it uses and no others.  Each check runs in a fresh
interpreter (``sys.modules`` of this test process holds everything the
suite imported) and counts modules; none times anything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.experiments.registry import all_experiments

PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.bgp",
    "repro.core",
    "repro.experiments",
    "repro.ixp",
    "repro.mitigation",
    "repro.sim",
    "repro.traffic",
)

DRIVERS = {f"repro.experiments.{spec.driver}" for spec in all_experiments()}


def _python(*args: str) -> subprocess.CompletedProcess:
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, check=False
    )
    assert completed.returncode == 0, completed.stderr
    return completed


def _loaded_after(script: str) -> set[str]:
    """``sys.modules`` of a fresh interpreter after running ``script``."""
    completed = _python("-c", f"{script}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))")
    return set(json.loads(completed.stdout.splitlines()[-1]))


def test_city_driver_loads_only_what_the_city_run_uses():
    loaded = _loaded_after(
        "from repro.experiments import get_experiment\n"
        "get_experiment('city_scale').runner"
    )
    ours = {name for name in loaded if name == "repro" or name.startswith("repro.")}
    assert {name for name in ours if name.startswith("repro.bgp.")} == {"repro.bgp.prefix"}
    assert not {name for name in ours if name.startswith("repro.mitigation")}
    assert "repro.core.stellar" not in ours
    assert "repro.experiments.scenario" not in ours
    assert ours & DRIVERS == {"repro.experiments.city_scale"}
    assert "asyncio" not in loaded
    # The city driver loads 43 repro modules; 45 leaves room for two more.
    assert len(ours) <= 45, sorted(ours)


def test_churn_driver_loads_no_event_loop():
    loaded = _loaded_after(
        "from repro.experiments import get_experiment\n"
        "get_experiment('rule_churn').runner"
    )
    assert "repro.experiments.rule_churn" in loaded
    assert "asyncio" not in loaded


def test_cli_list_imports_no_driver():
    completed = _python("-X", "importtime", "-m", "repro", "list")
    assert "city_scale" in completed.stdout
    imported = {
        line.rsplit("|", 1)[-1].strip()
        for line in completed.stderr.splitlines()
        if line.startswith("import time:")
    }
    assert "repro.experiments.registry" in imported
    assert not imported & DRIVERS, sorted(imported & DRIVERS)
    # Listing needs neither the sweep/result machinery nor numpy.
    unused = {"numpy", "repro.experiments.sweep", "repro.experiments.results"}
    assert not imported & unused, sorted(imported & unused)


REEXPORT_SCRIPT = """
import importlib
import sys

package = importlib.import_module({package!r})
table = package._EXPORTS
listed = dir(package)
for name in package.__all__:
    assert name in listed, name
    if name == "__version__":
        continue
    defining = importlib.import_module({package!r} + "." + table[name])
    value = getattr(package, name)
    assert value is getattr(defining, name), name
    if hasattr(value, "__module__") and callable(value):
        assert value.__module__ == defining.__name__, (name, value.__module__)

namespace = {{}}
exec("from {package} import *", namespace)
assert set(package.__all__) <= set(namespace), set(package.__all__) - set(namespace)

try:
    package.no_such_name
except AttributeError as error:
    assert {package!r} in str(error), str(error)
else:
    raise AssertionError("an unknown name resolved")
print("ok")
"""


@pytest.mark.parametrize("package", PACKAGES)
def test_package_reexports_resolve_to_their_defining_submodule(package):
    completed = _python("-c", REEXPORT_SCRIPT.format(package=package))
    assert completed.stdout.strip() == "ok"
