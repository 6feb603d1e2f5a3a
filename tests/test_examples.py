"""The examples' stdout, pinned: what a member reads must not drift.

``examples/quickstart.py`` and ``examples/signal_lifecycle.py`` are
deterministic.  Each runs in a fresh interpreter, because rule ids come
from a process-wide counter, and its stdout must equal the committed
transcript in ``tests/transcripts/``, byte for byte.  After an intended
change to an example's output, regenerate its transcript with
``PYTHONPATH=src python examples/<name>.py > tests/transcripts/<name>.txt``
and review the diff.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRANSCRIPTS = Path(__file__).resolve().parent / "transcripts"


@pytest.mark.parametrize("name", ["quickstart", "signal_lifecycle"])
def test_example_prints_its_transcript(name):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env["PYTHONIOENCODING"] = "utf-8"
    completed = subprocess.run(
        [sys.executable, str(ROOT / "examples" / f"{name}.py")],
        capture_output=True,
        env=env,
        cwd=ROOT,
        timeout=300,
        check=False,
    )
    assert completed.returncode == 0, completed.stderr.decode("utf-8", "replace")
    expected = (TRANSCRIPTS / f"{name}.txt").read_bytes()
    assert completed.stdout.decode("utf-8") == expected.decode("utf-8")
