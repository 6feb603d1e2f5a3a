"""Shared event-driven runner for the stepped experiments.

Every "active" experiment of the paper runs the same shape of loop: the
flow-level data plane advances in fixed observation intervals, while phase
transitions (the attack starting, the victim signalling RTBH, Stellar
escalating from shape to drop) happen at configured points on the timeline.
The original drivers each hand-rolled that loop and polled boolean flags
(``shape_signalled`` / ``drop_signalled``) on every step.

:class:`SteppedExperiment` replaces the copies: phase actions are scheduled
on a :class:`~repro.sim.engine.SimulationEngine` and fire as discrete
events at their exact trigger time, the data-plane step callback runs once
per interval, and every phase transition is recorded in the engine's
:class:`~repro.sim.events.EventLog` so results can expose *when* each
phase actually happened.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any, Optional

from ..sim.clock import SimulationClock, check_duration, check_interval
from ..sim.engine import SimulationEngine
from ..sim.events import Event, EventLog
from .heap import frozen_heap

#: A data-plane step callback: ``step(interval_start, interval_seconds)``.
StepFn = Callable[[float, float], None]


class SteppedExperiment:
    """Drives a fixed-interval data-plane loop through the event engine.

    The harness owns a :class:`SimulationEngine`; phase actions registered
    with :meth:`at` are scheduled events, and :meth:`run` interleaves them
    with the per-interval data-plane callback.  Events fire *before* the
    step whose interval they fall into (matching the original drivers,
    which checked their trigger flags before generating the interval's
    traffic), and the engine clock stands at the event's scheduled time
    while its callback runs.
    """

    def __init__(
        self,
        duration: float,
        interval: float,
        start: float = 0.0,
        engine: Optional[SimulationEngine] = None,
    ) -> None:
        check_interval(interval)
        check_duration(duration)
        self.duration = float(duration)
        self.interval = float(interval)
        self.start = float(start)
        self.engine = engine if engine is not None else SimulationEngine(
            SimulationClock(start=self.start)
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def clock(self) -> SimulationClock:
        return self.engine.clock

    @property
    def now(self) -> float:
        """Current simulation time (the event's scheduled time inside a phase action)."""
        return self.engine.clock.now

    @property
    def log(self) -> EventLog:
        return self.engine.log

    def phase_times(self, kind: str) -> list[float]:
        """Timestamps at which the named phase action actually fired."""
        return self.engine.log.times(kind)

    def events(self) -> list[tuple[float, str, dict]]:
        """All logged phase transitions, in firing order."""
        return self.engine.log.entries()

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def at(
        self,
        time: float,
        action: Callable[..., Any],
        *args: Any,
        name: str = "",
        **kwargs: Any,
    ) -> Event:
        """Schedule a phase ``action`` at absolute simulation ``time``.

        When the event fires, the transition is recorded in the event log
        under ``name`` (if given) before the action runs, so the log keeps
        the authoritative phase timeline even if the action raises.
        """

        def fire() -> Any:
            if name:
                self.engine.log.record(self.engine.clock.now, name)
            return action(*args, **kwargs)

        return self.engine.schedule_at(time, fire, name=name)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step_times(self) -> list[float]:
        """The interval-start times the data-plane callback runs at.

        A partial trailing interval is not stepped (floor, not round), so
        the data plane never observes traffic beyond ``duration``; the
        epsilon only absorbs float division error for exact multiples.
        """
        steps = int(self.duration / self.interval + 1e-9)
        return [self.start + index * self.interval for index in range(steps)]

    def run(self, step: Optional[StepFn] = None) -> "SteppedExperiment":
        """Run the experiment: fire due phase events, then step the data plane.

        For each interval start ``t`` the engine first fires every pending
        event scheduled at or before ``t`` (advancing the clock to each
        event's own time), then ``step(t, interval)`` observes the interval.
        Events scheduled beyond the final interval start never fire, exactly
        as a polled trigger past the end of the loop never tripped.  Set-up
        is over by now, so the loop runs on a frozen heap.
        """
        with frozen_heap():
            for t in self.step_times():
                self.engine.run(until=t)
                if step is not None:
                    step(t, self.interval)
        return self
