"""Simulation substrate: time-span validation and deterministic randomness."""

from .._lazy import lazy_exports

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "check_duration": "clock",
    "check_interval": "clock",
    "DEFAULT_SEED": "rng",
    "derive_seed": "rng",
    "make_rng": "rng",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
