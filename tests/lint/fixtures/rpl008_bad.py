"""RPL008 positive fixture: names imported through package __init__s."""

from repro import SwitchingFabric as RootFabric  # through the lazy root table
from repro.ixp import SwitchingFabric  # through an eager re-export

from ..ixp import *  # the whole package, by star

__all__ = ["RootFabric", "SwitchingFabric"]
