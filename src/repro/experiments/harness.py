"""Shared interval-stepped runner for the active experiments.

Every "active" experiment of the paper runs the same shape of loop: the
flow-level data plane advances in fixed observation intervals, while phase
transitions (the attack starting, the victim signalling RTBH, Stellar
escalating from shape to drop) happen at configured points on the timeline.
:class:`SteppedExperiment` runs that loop once for all drivers: it fires
each phase action before the step whose interval covers it, calls the
data-plane step once per interval, and logs every named phase transition
so results can expose *when* each phase actually happened.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections.abc import Callable
from typing import Optional

from ..sim.clock import check_duration, check_interval
from .heap import frozen_heap

#: A data-plane step callback: ``step(interval_start, interval_seconds)``.
StepFn = Callable[[float, float], None]
#: A logged phase transition: ``(time, name, details)``.
PhaseEvent = tuple[float, str, dict[str, object]]


class SteppedExperiment:
    """A fixed-interval data-plane loop with phase actions on its timeline.

    Actions registered with :meth:`at` fire *before* the step whose
    interval they fall into (a trigger is checked before the interval's
    traffic is generated); actions at the same time fire in registration
    order.  :attr:`now` stands at an action's own time while it runs and at
    the interval start while a step runs.
    """

    def __init__(self, duration: float, interval: float, start: float = 0.0) -> None:
        check_interval(interval)
        check_duration(duration)
        if not (math.isfinite(start) and start >= 0):
            raise ValueError(f"start must be non-negative and finite, got {start!r}")
        self.duration = float(duration)
        self.interval = float(interval)
        self.start = float(start)
        #: Current simulation time in seconds.
        self.now = self.start
        # (time, registration order, name, action) entries, as a heap.
        self._timeline: list[tuple[float, int, str, Callable[[], object]]] = []
        self._order = itertools.count()
        self._events: list[PhaseEvent] = []

    def events(self) -> list[PhaseEvent]:
        """All logged phase transitions, in firing order."""
        return list(self._events)

    def at(self, time: float, action: Callable[[], object], name: str = "") -> None:
        """Register a phase ``action`` at absolute simulation ``time``.

        ``time`` must be finite and not before :attr:`now`.  A named action
        is logged before it runs, so the log keeps the phase timeline even
        if the action raises.
        """
        if not (math.isfinite(time) and time >= self.now):
            raise ValueError(
                f"action time must be finite and not before {self.now}, got {time!r}"
            )
        heapq.heappush(self._timeline, (float(time), next(self._order), name, action))

    def step_times(self) -> list[float]:
        """The interval-start times the data-plane callback runs at.

        A partial trailing interval is not stepped (floor, not round), so
        the data plane never observes traffic beyond ``duration``; the
        epsilon only absorbs float division error for exact multiples.
        """
        steps = int(self.duration / self.interval + 1e-9)
        return [self.start + index * self.interval for index in range(steps)]

    def run(self, step: Optional[StepFn] = None) -> SteppedExperiment:
        """Run the experiment: fire due phase actions, then step the data plane.

        For each interval start ``t`` every pending action at or before
        ``t`` fires, then ``step(t, interval)`` observes the interval.
        Actions after the final interval start never fire.  Set-up is over
        by now, so the loop runs on a frozen heap.
        """
        with frozen_heap():
            for t in self.step_times():
                while self._timeline and self._timeline[0][0] <= t:
                    self.now, _, name, action = heapq.heappop(self._timeline)
                    if name:
                        self._events.append((self.now, name, {}))
                    action()
                self.now = t
                if step is not None:
                    step(t, self.interval)
        return self
