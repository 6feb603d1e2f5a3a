"""Record which ``src/repro`` functions the registered entry points reach.

Run as ``python tests/reachability_probe.py OUT.json`` with ``src`` on the
path.  The probe installs a profile hook in this interpreter (and in every
thread it starts), then drives the entry points a user has:

* ``python -m repro list`` and ``list --json``;
* ``run <name> --quick --json`` for every registered experiment, plus
  ``run city_scale --quick --execution serial`` and one ``run`` with an
  unknown option, which must fail with the list of valid options;
* ``sweep fig10a --quick --json`` twice against one artifact store
  (``--jobs 1``, so the second pass is served from the store);
* every ``examples/*.py`` script, run as ``__main__``.

It writes the sorted ``[path, first line]`` pairs of every code object
under ``src/repro`` that was called, with paths relative to
``src/repro``.  The first line of a decorated function's code object is
its first decorator's line.

Spawned processes (the sharded ``city_scale`` workers, the example sweep's
pool) re-import this file as ``__mp_main__``.  Everything below that
imports ``repro`` or installs the hook therefore sits under
``if __name__ == "__main__":``, and what runs only in those processes is
not recorded (``tests/reachability_allowlist.json`` tags it ``worker``).
"""

from __future__ import annotations

import contextlib
import json
import os
import runpy
import sys
import tempfile
import threading
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "repro"


def drive_entry_points(scratch: str) -> None:
    """Run every entry point once, with stdout discarded."""
    from repro.__main__ import main
    from repro.experiments.registry import all_experiments

    store = os.path.join(scratch, "store")
    sweep = ["sweep", "fig10a", "--quick", "--grid", "samples_per_rate=4,6",
             "--jobs", "1", "--store", store, "--json"]
    commands = [["list"], ["list", "--json"]]
    commands += [["run", spec.name, "--quick", "--json"] for spec in all_experiments()]
    commands += [["run", "city_scale", "--quick", "--execution", "serial"], sweep, sweep]
    with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
        for argv in commands:
            if main(argv) != 0:
                raise SystemExit(f"python -m repro {' '.join(argv)} failed")
        try:
            main(["run", "fig10a", "--no-such-option", "1"])
        except SystemExit as error:
            if "--samples-per-rate" not in str(error):
                raise
        else:
            raise SystemExit("an unknown option did not fail")
        # The examples' own scratch files (the sweep example's artifact
        # store) go to a fresh directory, so every probe computes them.
        tempfile.tempdir = scratch
        for example in sorted((REPO / "examples").glob("*.py")):
            saved_argv = sys.argv
            sys.argv = [str(example)]
            try:
                runpy.run_path(str(example), run_name="__main__")
            finally:
                sys.argv = saved_argv


def record_reached() -> list[tuple[str, int]]:
    """Drive the entry points under the profile hook; return what it saw."""
    called: set[tuple[str, int]] = set()

    def hook(frame, event, arg):  # type: ignore[no-untyped-def]
        if event == "call":
            code = frame.f_code
            called.add((code.co_filename, code.co_firstlineno))

    with tempfile.TemporaryDirectory() as scratch:
        threading.setprofile(hook)
        sys.setprofile(hook)
        try:
            drive_entry_points(scratch)
        finally:
            sys.setprofile(None)
            threading.setprofile(None)  # type: ignore[arg-type]
            tempfile.tempdir = None
    root = str(PACKAGE) + os.sep
    reached = {(os.path.realpath(filename), line) for filename, line in called}
    return sorted(
        (os.path.relpath(filename, PACKAGE), line)
        for filename, line in reached
        if filename.startswith(root)
    )


if __name__ == "__main__":
    reached = record_reached()
    Path(sys.argv[1]).write_text(json.dumps(reached) + "\n", encoding="utf-8")
