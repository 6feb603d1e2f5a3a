"""Blackholing rules — the central abstraction of Advanced Blackholing.

A blackholing rule describes *what* traffic towards a member's prefix
should be discarded or shaped (paper §3.2): a combination of L2–L4 header
fields (source MAC / peer, IP protocol, source or destination transport
port) plus an action (drop, or shape to a rate for telemetry).  Rules are
signalled by the member (via BGP extended communities or the customer
portal), tracked by the blackholing controller, and compiled into
hardware-specific QoS rules (:meth:`BlackholingRule.to_qos_rule`) that
the control-plane service installs on the victim's egress port.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from ..bgp.prefix import Prefix, parse_prefix
from ..ixp.qos import FilterAction, FlowMatch, QosRule
from ..traffic.packet import IpProtocol

_rule_counter = itertools.count(1)


class RuleAction(Enum):
    """What Stellar does with matching traffic."""

    DROP = "drop"
    SHAPE = "shape"


@dataclass(frozen=True)
class BlackholingRule:
    """One Advanced Blackholing rule requested by an IXP member.

    ``dst_prefix`` is the prefix under attack (owned by ``owner_asn``);
    the remaining match fields narrow the rule to the attack traffic —
    for instance UDP source port 123 for an NTP reflection attack.
    """

    owner_asn: int
    dst_prefix: Prefix
    action: RuleAction = RuleAction.DROP
    protocol: Optional[IpProtocol] = None
    src_port: Optional[int] = None
    dst_port: Optional[int] = None
    #: Filter traffic entering through a specific peer (RTBH policy control);
    #: expressed as the peer's MAC address on the peering LAN.
    src_mac: Optional[str] = None
    src_prefix: Optional[Prefix] = None
    #: Only for SHAPE: rate limit in bits per second.
    shape_rate_bps: float = 0.0
    rule_id: str = field(default_factory=lambda: f"bh-{next(_rule_counter):06d}")

    def __post_init__(self) -> None:
        if self.owner_asn <= 0:
            raise ValueError("owner_asn must be positive")
        for name in ("src_port", "dst_port"):
            port = getattr(self, name)
            if port is not None and not 0 <= port <= 65535:
                raise ValueError(f"{name} must be a valid L4 port, got {port}")
        if self.action is RuleAction.SHAPE and self.shape_rate_bps <= 0:
            raise ValueError("SHAPE rules require a positive shape_rate_bps")
        if self.action is RuleAction.DROP and self.shape_rate_bps:
            raise ValueError("DROP rules must not carry a shape rate")

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def flow_match(self) -> FlowMatch:
        """The data-plane match criteria for this rule."""
        return FlowMatch(
            dst_prefix=self.dst_prefix,
            src_prefix=self.src_prefix,
            src_mac=self.src_mac,
            protocol=self.protocol,
            src_port=self.src_port,
            dst_port=self.dst_port,
        )

    def to_qos_rule(self) -> QosRule:
        """Compile to the vendor-neutral QoS rule installed on the egress port."""
        if self.action is RuleAction.DROP:
            return QosRule(
                match=self.flow_match(), action=FilterAction.DROP, rule_id=self.rule_id
            )
        return QosRule(
            match=self.flow_match(),
            action=FilterAction.SHAPE,
            shape_rate_bps=self.shape_rate_bps,
            rule_id=self.rule_id,
        )

    # ------------------------------------------------------------------
    # Resource footprint (TCAM accounting, Fig. 9)
    # ------------------------------------------------------------------
    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def drop_udp_source_port(
        cls, owner_asn: int, victim: "str | Prefix", port: int
    ) -> "BlackholingRule":
        """Drop UDP traffic from a given source port towards the victim.

        The canonical Advanced Blackholing rule for reflection attacks
        (e.g. port 123 for NTP, 11211 for memcached).
        """
        return cls(
            owner_asn=owner_asn,
            dst_prefix=parse_prefix(victim),
            action=RuleAction.DROP,
            protocol=IpProtocol.UDP,
            src_port=port,
        )

    @classmethod
    def shape_udp_source_port(
        cls, owner_asn: int, victim: "str | Prefix", port: int, rate_bps: float
    ) -> "BlackholingRule":
        """Shape UDP traffic from a source port to ``rate_bps`` (telemetry)."""
        return cls(
            owner_asn=owner_asn,
            dst_prefix=parse_prefix(victim),
            action=RuleAction.SHAPE,
            protocol=IpProtocol.UDP,
            src_port=port,
            shape_rate_bps=rate_bps,
        )

    @classmethod
    def drop_protocol(
        cls, owner_asn: int, victim: "str | Prefix", protocol: IpProtocol
    ) -> "BlackholingRule":
        """Drop all traffic of one IP protocol towards the victim."""
        return cls(
            owner_asn=owner_asn,
            dst_prefix=parse_prefix(victim),
            protocol=protocol,
        )

    @classmethod
    def fine_grained_set(
        cls,
        owner_asn: int,
        hosts: Sequence[str],
        source_ports: Sequence[int],
        count: int,
        shape_every: int = 0,
        shape_rate_bps: float = 1e6,
        protocol: IpProtocol = IpProtocol.UDP,
    ) -> "list[BlackholingRule]":
        """A fine-grained rule set in the dominant Stellar shape.

        ``count`` rules cycling over the cross product of the victim's
        ``hosts`` (each a /32 destination) and the abused ``source_ports``
        — one :meth:`drop_udp_source_port`-shaped rule per (host, port)
        pair, host-major so consecutive rules cover one host across all
        ports before moving on.  Every ``shape_every``-th rule (if > 0)
        is a SHAPE telemetry rule at ``shape_rate_bps`` instead of a
        DROP.  This is the workload generator of the ``fine_grained``
        scenario: tens of thousands of such rules are what the paper's
        scalability claim (Table 1, §5) says advanced blackholing handles
        and pre-filtering hardware does not.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        if not hosts or not source_ports:
            raise ValueError("need at least one host and one source port")
        if count > len(hosts) * len(source_ports):
            raise ValueError(
                f"count {count} exceeds the {len(hosts)} x {len(source_ports)} "
                "distinct (host, port) pairs"
            )
        # One parse per host: the host's rules share its frozen Prefix (and
        # its cached int_bounds).
        prefixes = [
            parse_prefix(host)
            for host in hosts[: -(-count // len(source_ports))]
        ]
        rules: list[BlackholingRule] = []
        for index in range(count):
            prefix = prefixes[index // len(source_ports)]
            port = source_ports[index % len(source_ports)]
            if shape_every > 0 and (index + 1) % shape_every == 0:
                rules.append(
                    cls.shape_udp_source_port(owner_asn, prefix, port, shape_rate_bps)
                )
            else:
                rules.append(cls(
                    owner_asn=owner_asn,
                    dst_prefix=prefix,
                    action=RuleAction.DROP,
                    protocol=protocol,
                    src_port=port,
                ))
        return rules

    def __str__(self) -> str:
        parts = [f"{self.action.value} -> {self.dst_prefix}"]
        if self.protocol is not None:
            parts.append(f"proto={self.protocol.name}")
        if self.src_port is not None:
            parts.append(f"src_port={self.src_port}")
        if self.dst_port is not None:
            parts.append(f"dst_port={self.dst_port}")
        if self.src_mac is not None:
            parts.append(f"src_mac={self.src_mac}")
        if self.action is RuleAction.SHAPE:
            parts.append(f"rate={self.shape_rate_bps / 1e6:.0f}Mbps")
        return f"BlackholingRule({self.rule_id}: " + ", ".join(parts) + ")"
