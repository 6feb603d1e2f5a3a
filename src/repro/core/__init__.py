"""Stellar core: Advanced Blackholing rules, signaling, management, filtering."""

from collections.abc import Callable
from typing import Any

from .._lazy import lazy_exports

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "CommunityDecodeError": "community_codec",
    "UnencodableRuleError": "community_codec",
    "StellarCommunityCodec": "community_codec",
    "BlackholingController": "controller",
    "ControllerStats": "controller",
    "CustomerPortal": "portal",
    "RuleTemplate": "portal",
    "ixp_shared_templates": "portal",
    "BlackholingRule": "rules",
    "fine_grained_set": "rules",
    "SignalingLayer": "signaling",
    "NOTHING_WITHDRAWN": "signaling",
    "SignalRejectedError": "signaling",
    "SignalResult": "signaling",
    "Stellar": "stellar",
    "StellarIntervalReport": "stellar",
    "MemberTelemetryReport": "telemetry",
    "RuleTelemetry": "telemetry",
}

__all__ = list(_EXPORTS)
# Declared so mypy --strict, which checks this package, types the
# re-exports at import sites.
__getattr__: Callable[[str], Any]
__dir__: Callable[[], list[str]]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
