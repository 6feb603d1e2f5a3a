"""RPL008 negative fixture: every name comes from its defining module."""

import numpy as np
from numpy import float64

from repro.ixp.fabric import SwitchingFabric

from .. import __version__  # defined by the package __init__ itself
from ..ixp import fabric  # a submodule, not a re-export
from ..ixp.fabric import SwitchingFabric as Fabric

__all__ = ["Fabric", "SwitchingFabric", "__version__", "fabric", "float64", "np"]
