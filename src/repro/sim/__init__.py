"""Simulation substrate: clock, event engine and deterministic randomness."""

from .._lazy import lazy_exports

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "SimulationClock": "clock",
    "check_duration": "clock",
    "check_interval": "clock",
    "SimulationEngine": "engine",
    "Event": "events",
    "EventLog": "events",
    "DEFAULT_SEED": "rng",
    "derive_seed": "rng",
    "make_rng": "rng",
    "spawn": "rng",
    "weighted_choice": "rng",
    "pareto_bytes": "rng",
    "exponential_interarrivals": "rng",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
