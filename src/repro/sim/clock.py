"""Simulation clock.

The reproduction uses a discrete-time / discrete-event hybrid: most
experiments advance time in fixed steps (flow-level traffic simulation),
while the control-plane components (token bucket queues, configuration
deployment) are event driven.  Both share a :class:`SimulationClock` so
that data-plane and control-plane timelines stay consistent.
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


class SimulationClock:
    """Monotonically increasing simulation time in seconds.

    The clock never moves backwards.  Components that need the current
    time hold a reference to the shared clock instead of a float so that
    advancing the simulation is visible everywhere.
    """

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ValueError(f"simulation time must be non-negative, got {start}")
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def advance(self, delta: float) -> float:
        """Advance the clock by ``delta`` seconds and return the new time."""
        if delta < 0:
            raise ValueError(f"cannot advance clock by a negative delta ({delta})")
        self._now += delta
        return self._now

    def advance_to(self, timestamp: float) -> float:
        """Advance the clock to an absolute ``timestamp``.

        Raises :class:`ValueError` if the timestamp is in the past.
        """
        if timestamp < self._now:
            raise ValueError(
                f"cannot move clock backwards from {self._now} to {timestamp}"
            )
        self._now = float(timestamp)
        return self._now

    def reset(self, start: float = 0.0) -> None:
        """Reset the clock (used between independent experiment runs)."""
        if start < 0:
            raise ValueError(f"simulation time must be non-negative, got {start}")
        self._now = float(start)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimulationClock(now={self._now:.3f})"
