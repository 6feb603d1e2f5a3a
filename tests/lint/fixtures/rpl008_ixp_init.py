"""RPL008 support fixture: a subpackage whose __init__ re-exports eagerly."""

from .fabric import SwitchingFabric

__all__ = ["SwitchingFabric"]
