"""RPL001 — all randomness and time must flow through ``sim.rng`` / the clock.

The reproduction's headline guarantee is bit-for-bit determinism: the
sharded pipeline is pinned equal to its serial oracle, the service's
run equals its synchronous driver and its replay, and golden-seed tests pin
SHA-256 hashes of whole result payloads.  One ``time.time()`` or
unseeded ``np.random.default_rng()`` anywhere in the simulation packages
silently breaks every one of those contracts — and only shows up later,
as a flaky parity test.  This rule bans the wall clock, the global
(process-state) NumPy RNG, the stdlib ``random`` module, and unseeded
generator construction inside ``sim/``, ``traffic/``, ``ixp/`` and
``experiments/``; explicit seeds and :mod:`repro.sim.rng` helpers are
the sanctioned sources.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from ..engine import Finding, ParsedModule
from .base import ImportMap, LintRule, call_name

#: Wall-clock and date sources banned outright in simulation code.
_BANNED_CALLS = {
    "time.time": "wall-clock read",
    "time.time_ns": "wall-clock read",
    "time.monotonic": "wall-clock read",
    "time.monotonic_ns": "wall-clock read",
    "datetime.datetime.now": "wall-clock date",
    "datetime.datetime.utcnow": "wall-clock date",
    "datetime.datetime.today": "wall-clock date",
    "datetime.date.today": "wall-clock date",
}

#: ``numpy.random`` attributes that construct/describe generators and are
#: therefore allowed (when seeded).  Everything lowercase outside this set
#: is a legacy global-state distribution call (``np.random.seed``,
#: ``np.random.uniform``, …) and banned.
_NUMPY_ALLOWED = {"default_rng"}


class DeterminismRule(LintRule):
    rule_id = "RPL001"
    title = "simulation code must draw randomness/time through sim.rng"
    paths = (
        "src/repro/sim/",
        "src/repro/traffic/",
        "src/repro/ixp/",
        "src/repro/experiments/",
    )

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        imports = ImportMap(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node, imports)
            if name is None:
                continue
            if name in _BANNED_CALLS:
                yield module.finding(
                    self.rule_id,
                    node,
                    f"{_BANNED_CALLS[name]} `{name}()` is non-deterministic; "
                    "derive times from the simulation clock / interval grid",
                )
                continue
            if name.startswith("random."):
                yield module.finding(
                    self.rule_id,
                    node,
                    f"stdlib `{name}()` uses hidden global RNG state; draw "
                    "through an explicit np.random.Generator from repro.sim.rng",
                )
                continue
            if name.startswith("numpy.random."):
                attr = name.removeprefix("numpy.random.")
                if attr == "default_rng" and not node.args and not node.keywords:
                    yield module.finding(
                        self.rule_id,
                        node,
                        "unseeded `np.random.default_rng()` draws from OS "
                        "entropy; pass an explicit seed (see repro.sim.rng.make_rng)",
                    )
                elif "." not in attr and attr not in _NUMPY_ALLOWED and attr[:1].islower():
                    yield module.finding(
                        self.rule_id,
                        node,
                        f"legacy global-state `np.random.{attr}()` is "
                        "non-reproducible across processes; use an explicit "
                        "np.random.Generator from repro.sim.rng",
                    )
