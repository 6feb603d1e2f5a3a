"""Simulation substrate: clock, event engine and deterministic randomness."""

from .clock import SimulationClock, check_duration, check_interval
from .engine import SimulationEngine
from .events import Event, EventLog
from .rng import (
    DEFAULT_SEED,
    derive_seed,
    exponential_interarrivals,
    make_rng,
    pareto_bytes,
    spawn,
    weighted_choice,
)

__all__ = [
    "SimulationClock",
    "check_duration",
    "check_interval",
    "SimulationEngine",
    "Event",
    "EventLog",
    "DEFAULT_SEED",
    "derive_seed",
    "make_rng",
    "spawn",
    "weighted_choice",
    "pareto_bytes",
    "exponential_interarrivals",
]
