"""Stellar core: Advanced Blackholing rules, signaling, management, filtering."""

from .change_queue import ChangeQueue, ChangeType, ConfigChange
from .community_codec import (
    CommunityDecodeError,
    DecodedSignal,
    StellarCommunityCodec,
)
from .controller import BlackholingController, ControllerStats
from .manager import (
    MAX_RULES_PER_PORT,
    DeploymentRecord,
    DeploymentStatus,
    NetworkManager,
)
from .portal import CustomerPortal, RuleTemplate, ixp_shared_templates
from .rules import BlackholingRule, RuleAction
from .signaling import SignalingLayer, SignalRejectedError, SignalResult
from .stellar import Stellar, StellarIntervalReport
from .telemetry import MemberTelemetryReport, RuleTelemetry, TelemetryCollector

__all__ = [
    "ChangeQueue",
    "ChangeType",
    "ConfigChange",
    "CommunityDecodeError",
    "DecodedSignal",
    "StellarCommunityCodec",
    "BlackholingController",
    "ControllerStats",
    "MAX_RULES_PER_PORT",
    "DeploymentRecord",
    "DeploymentStatus",
    "NetworkManager",
    "CustomerPortal",
    "RuleTemplate",
    "ixp_shared_templates",
    "BlackholingRule",
    "RuleAction",
    "SignalingLayer",
    "SignalRejectedError",
    "SignalResult",
    "Stellar",
    "StellarIntervalReport",
    "MemberTelemetryReport",
    "RuleTelemetry",
    "TelemetryCollector",
]
