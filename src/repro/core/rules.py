"""Blackholing rules — the central abstraction of Advanced Blackholing.

A blackholing rule describes *what* traffic towards a member's prefix
should be discarded or shaped (paper §3.2): a combination of L2–L4 header
fields (source MAC / peer, IP protocol, source or destination transport
port) plus an action (drop, or shape to a rate for telemetry).  Rules are
signalled by the member (via BGP extended communities or the customer
portal), tracked by the blackholing controller, and installed by the
control-plane service on the victim's egress port.

The rule format lives in :mod:`repro.ixp.qos`: a
:class:`~repro.ixp.qos.FlowMatch`, a :class:`~repro.ixp.qos.FilterAction`
and the :class:`~repro.ixp.qos.QosRule` that pairs them.  A
:class:`BlackholingRule` is the member that owns a rule plus the
``QosRule`` the router installs.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

from ..bgp.prefix import Prefix, parse_prefix
from ..ixp.qos import FilterAction, FlowMatch, QosRule
from ..traffic.packet import IpProtocol

_rule_counter = itertools.count(1)


def _next_rule_id() -> str:
    return f"bh-{next(_rule_counter):06d}"


@dataclass(frozen=True)
class BlackholingRule:
    """One Advanced Blackholing rule requested by an IXP member.

    ``qos.match.dst_prefix`` is the prefix under attack (owned by
    ``owner_asn``); the remaining match fields narrow the rule to the
    attack traffic — for instance UDP source port 123 for an NTP
    reflection attack.  ``qos.rule_id`` names the rule in telemetry.
    """

    owner_asn: int
    qos: QosRule

    def __post_init__(self) -> None:
        if self.owner_asn <= 0:
            raise ValueError("owner_asn must be positive")
        if self.qos.match.dst_prefix is None:
            raise ValueError("a blackholing rule needs the victim's dst_prefix")
        if self.qos.action is FilterAction.FORWARD:
            raise ValueError("a blackholing rule drops or shapes its traffic")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        owner_asn: int,
        match: FlowMatch,
        action: FilterAction = FilterAction.DROP,
        shape_rate_bps: float = 0.0,
        rule_id: Optional[str] = None,
    ) -> "BlackholingRule":
        """A rule with ``rule_id``, or else the next process-wide ``bh-`` id."""
        if rule_id is None:
            rule_id = _next_rule_id()
        return cls(owner_asn, QosRule(match, action, shape_rate_bps, rule_id))

    @classmethod
    def drop_udp_source_port(
        cls,
        owner_asn: int,
        victim: "str | Prefix",
        port: int,
        rule_id: Optional[str] = None,
    ) -> "BlackholingRule":
        """Drop UDP traffic from a given source port towards the victim.

        The canonical Advanced Blackholing rule for reflection attacks
        (e.g. port 123 for NTP, 11211 for memcached).
        """
        match = FlowMatch(
            dst_prefix=parse_prefix(victim), protocol=IpProtocol.UDP, src_port=port
        )
        return cls.create(owner_asn, match, rule_id=rule_id)

    @classmethod
    def shape_udp_source_port(
        cls,
        owner_asn: int,
        victim: "str | Prefix",
        port: int,
        rate_bps: float,
        rule_id: Optional[str] = None,
    ) -> "BlackholingRule":
        """Shape UDP traffic from a source port to ``rate_bps`` (telemetry)."""
        match = FlowMatch(
            dst_prefix=parse_prefix(victim), protocol=IpProtocol.UDP, src_port=port
        )
        return cls.create(owner_asn, match, FilterAction.SHAPE, rate_bps, rule_id)

    @classmethod
    def drop_protocol(
        cls,
        owner_asn: int,
        victim: "str | Prefix",
        protocol: int,
        rule_id: Optional[str] = None,
    ) -> "BlackholingRule":
        """Drop all traffic of one IP protocol (any 8-bit number) towards the victim."""
        match = FlowMatch(dst_prefix=parse_prefix(victim), protocol=protocol)
        return cls.create(owner_asn, match, rule_id=rule_id)

    def __str__(self) -> str:
        qos, match = self.qos, self.qos.match
        parts = [f"{qos.action.value} -> {match.dst_prefix}"]
        if match.protocol is not None:
            parts.append(f"proto={getattr(match.protocol, 'name', match.protocol)}")
        if match.src_port is not None:
            parts.append(f"src_port={match.src_port}")
        if match.dst_port is not None:
            parts.append(f"dst_port={match.dst_port}")
        if match.src_mac is not None:
            parts.append(f"src_mac={match.src_mac}")
        if qos.action is FilterAction.SHAPE:
            parts.append(f"rate={qos.shape_rate_bps / 1e6:g}Mbps")
        return f"BlackholingRule({qos.rule_id}: " + ", ".join(parts) + ")"


def fine_grained_set(
    hosts: Sequence[str],
    source_ports: Sequence[int],
    count: int,
    shape_every: int = 0,
    shape_rate_bps: float = 1e6,
    protocol: IpProtocol = IpProtocol.UDP,
) -> list[QosRule]:
    """A fine-grained rule set in the dominant Stellar shape.

    ``count`` rules cycling over the cross product of the victim's
    ``hosts`` (each a /32 destination) and the abused ``source_ports``
    — one :meth:`BlackholingRule.drop_udp_source_port`-shaped rule per
    (host, port) pair, host-major so consecutive rules cover one host
    across all ports before moving on.  Every ``shape_every``-th rule (if
    > 0) is a SHAPE telemetry rule at ``shape_rate_bps`` instead of a
    DROP.  Each rule takes the next process-wide ``bh-`` id.  This is the
    workload generator of the ``fine_grained`` scenario: tens of
    thousands of such rules are what the paper's scalability claim
    (Table 1, §5) says advanced blackholing handles and pre-filtering
    hardware does not.
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
    rules: list[QosRule] = []
    for index in range(count):
        prefix = prefixes[index // len(source_ports)]
        port = source_ports[index % len(source_ports)]
        if shape_every > 0 and (index + 1) % shape_every == 0:
            match = FlowMatch(dst_prefix=prefix, protocol=IpProtocol.UDP, src_port=port)
            rules.append(
                QosRule(match, FilterAction.SHAPE, shape_rate_bps, _next_rule_id())
            )
        else:
            match = FlowMatch(dst_prefix=prefix, protocol=protocol, src_port=port)
            rules.append(QosRule(match, FilterAction.DROP, rule_id=_next_rule_id()))
    return rules
