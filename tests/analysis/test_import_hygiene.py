"""scipy loads only when a statistic that needs it runs.

Every run and every spawned shard worker imports the package, so a heavy
analysis-only dependency at module level is paid by all of them.  This
guard imports the package, the experiment registry and the shard worker's
entry module in a fresh interpreter, looks up every registered experiment,
and checks that ``scipy`` is still absent from ``sys.modules``; a
``welch_t_test`` call then loads it and gives the in-process result.  It
counts modules and times nothing.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.analysis import welch_t_test

SAMPLE_A = [5.0, 6.5, 7.0, 8.5, 9.0]
SAMPLE_B = [1.0, 2.5, 3.0, 2.0, 4.0]

SCRIPT = f"""
import sys

import repro
import repro.__main__
import repro.experiments
import repro.experiments.city_scale
from repro.experiments.registry import all_experiments, get_experiment

for spec in all_experiments():
    for name in (spec.name, *spec.aliases):
        get_experiment(name)
assert "scipy" not in sys.modules, "importing the package loaded scipy"

from repro.analysis import welch_t_test

result = welch_t_test({SAMPLE_A!r}, {SAMPLE_B!r})
assert "scipy.stats" in sys.modules
print(repr((result.statistic, result.p_value, result.significant)))
"""


def test_package_import_does_not_load_scipy():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    assert completed.returncode == 0, completed.stderr
    expected = welch_t_test(SAMPLE_A, SAMPLE_B)
    assert completed.stdout.strip() == repr(
        (expected.statistic, expected.p_value, expected.significant)
    )
