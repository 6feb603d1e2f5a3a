"""RPL008 support fixture: the root package, with a lazy re-export table."""

from ._lazy import lazy_exports

__version__ = "0.0.0"

_EXPORTS = {"SwitchingFabric": "ixp.fabric"}

__all__ = [*_EXPORTS, "__version__"]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
