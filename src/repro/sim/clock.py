"""Validation of simulation time spans.

Experiments advance time on a fixed interval grid: the data plane observes
one interval at a time, and phase transitions fire before the interval that
covers them (:class:`~repro.experiments.harness.SteppedExperiment`).  Every layer that
takes an observation interval or a run length checks it here, so a zero,
negative or non-finite span fails the same way everywhere.
"""

from __future__ import annotations

import math


def check_interval(interval: float) -> None:
    """Reject an observation interval that is not a positive finite length."""
    if not (math.isfinite(interval) and interval > 0):
        raise ValueError(f"interval must be positive and finite, got {interval!r}")


def check_duration(duration: float) -> None:
    """Reject a run length that is negative or not finite (zero is legal)."""
    if not (math.isfinite(duration) and duration >= 0):
        raise ValueError(f"duration must be non-negative and finite, got {duration!r}")
