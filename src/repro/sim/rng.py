"""Deterministic random-number helpers.

Every stochastic component of the reproduction (traffic generation, attack
source selection, RTBH compliance draws) takes an explicit seed or an
explicit ``numpy`` generator, so experiments are reproducible run-to-run.
This module centralises construction of generators and the derivation of
per-point seeds for sweeps.
"""

from __future__ import annotations

import numpy as np

#: Default seed used when an experiment does not specify one.  Chosen
#: arbitrarily; the value itself is meaningless but must stay fixed so that
#: documented example output remains stable.
DEFAULT_SEED = 20181204  # CoNEXT 2018 started on 2018-12-04.


def make_rng(seed: int | None = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` seeded deterministically."""
    return np.random.default_rng(DEFAULT_SEED if seed is None else seed)


def derive_seed(base_seed: int, *keys: int) -> int:
    """Derive a deterministic child seed from ``base_seed`` and ``keys``.

    Sweeps use this to give every grid point an independent, reproducible
    RNG stream: ``derive_seed(sweep_seed, point_key)`` depends only on its
    inputs, so a sweep point computed in a worker process gets exactly the
    same seed as the same point computed serially or in a later re-run.
    """
    sequence = np.random.SeedSequence([int(base_seed), *(int(key) for key in keys)])
    return int(sequence.generate_state(1, np.uint64)[0] % (2**63 - 1))
