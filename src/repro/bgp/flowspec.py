"""BGP Flowspec (RFC 5575) model.

Flowspec is one of the baselines the paper compares against (§1.1, §4.2.1):
it disseminates fine-grained traffic-flow specifications with traffic
filtering actions over BGP.  The reproduction models the NLRI component
types and actions needed to express the same filters as Advanced
Blackholing rules so the baseline comparison (Table 1 and the signalling
ablation bench) can reason about expressiveness, resource consumption and
cooperation requirements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .prefix import Prefix, parse_prefix


class FlowspecComponentType(Enum):
    """RFC 5575 §4 component types (subset used here)."""

    DEST_PREFIX = 1
    SOURCE_PREFIX = 2
    IP_PROTOCOL = 3
    PORT = 4
    DEST_PORT = 5
    SOURCE_PORT = 6
    ICMP_TYPE = 7
    ICMP_CODE = 8
    TCP_FLAGS = 9
    PACKET_LENGTH = 10
    DSCP = 11
    FRAGMENT = 12


class FlowspecActionType(Enum):
    """Traffic-filtering actions carried as extended communities (RFC 5575 §7)."""

    TRAFFIC_RATE = "traffic-rate"      # rate 0 == drop
    TRAFFIC_ACTION = "traffic-action"
    REDIRECT = "redirect"
    TRAFFIC_MARKING = "traffic-marking"


@dataclass(frozen=True)
class FlowspecAction:
    """One traffic-filtering action."""

    action_type: FlowspecActionType
    #: For TRAFFIC_RATE: the rate limit in bytes/second (0 == discard).
    rate_bytes_per_second: float = 0.0
    #: For REDIRECT: the target route-target / VRF label.
    redirect_target: str = ""

    @property
    def is_discard(self) -> bool:
        return (
            self.action_type is FlowspecActionType.TRAFFIC_RATE
            and self.rate_bytes_per_second == 0.0
        )


@dataclass(frozen=True)
class FlowspecRule:
    """A flow specification: match components plus actions."""

    dest_prefix: Optional[Prefix] = None
    source_prefix: Optional[Prefix] = None
    ip_protocol: Optional[int] = None
    source_port: Optional[int] = None
    dest_port: Optional[int] = None
    packet_length_max: Optional[int] = None
    actions: tuple[FlowspecAction, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        for name in ("source_port", "dest_port"):
            port = getattr(self, name)
            if port is not None and not 0 <= port <= 65535:
                raise ValueError(f"{name} must be a valid L4 port, got {port}")
        if self.ip_protocol is not None and not 0 <= self.ip_protocol <= 255:
            raise ValueError(f"ip_protocol must fit in 8 bits, got {self.ip_protocol}")

    # ------------------------------------------------------------------
    def components(self) -> list[FlowspecComponentType]:
        """The NLRI component types present in this rule (ordered)."""
        present = []
        if self.dest_prefix is not None:
            present.append(FlowspecComponentType.DEST_PREFIX)
        if self.source_prefix is not None:
            present.append(FlowspecComponentType.SOURCE_PREFIX)
        if self.ip_protocol is not None:
            present.append(FlowspecComponentType.IP_PROTOCOL)
        if self.dest_port is not None:
            present.append(FlowspecComponentType.DEST_PORT)
        if self.source_port is not None:
            present.append(FlowspecComponentType.SOURCE_PORT)
        if self.packet_length_max is not None:
            present.append(FlowspecComponentType.PACKET_LENGTH)
        return present

    @property
    def is_discard(self) -> bool:
        return any(action.is_discard for action in self.actions)


def drop_rule(
    dest_prefix: "str | Prefix",
    source_port: Optional[int] = None,
    ip_protocol: Optional[int] = None,
) -> FlowspecRule:
    """Build a discard rule for traffic towards ``dest_prefix``."""
    return FlowspecRule(
        dest_prefix=parse_prefix(dest_prefix),
        source_port=source_port,
        ip_protocol=ip_protocol,
        actions=(FlowspecAction(FlowspecActionType.TRAFFIC_RATE, 0.0),),
    )


def rate_limit_rule(
    dest_prefix: "str | Prefix",
    rate_bytes_per_second: float,
    source_port: Optional[int] = None,
    ip_protocol: Optional[int] = None,
) -> FlowspecRule:
    """Build a rate-limit rule for traffic towards ``dest_prefix``."""
    if rate_bytes_per_second < 0:
        raise ValueError("rate must be non-negative")
    return FlowspecRule(
        dest_prefix=parse_prefix(dest_prefix),
        source_port=source_port,
        ip_protocol=ip_protocol,
        actions=(
            FlowspecAction(FlowspecActionType.TRAFFIC_RATE, rate_bytes_per_second),
        ),
    )
