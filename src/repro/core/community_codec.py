"""Encoding blackholing rules in BGP extended communities.

Stellar chose BGP extended communities (RFC 4360) as its signalling
interface because they offer a large, structured numbering space while
remaining compatible with every route-server implementation (paper
§4.2.1).  The paper's Internet experiment uses the community ``IXP:2:123``
— "2" selecting *UDP source port* and "123" the port value (§5.3).

This module defines the concrete namespace used by the reproduction and
implements a reversible codec between :class:`~repro.core.rules.BlackholingRule`
objects and sets of :class:`~repro.bgp.communities.ExtendedCommunity`.
:meth:`StellarCommunityCodec.decode` gives back the prefix-less
:class:`~repro.core.portal.RuleTemplate` the portal uses (or the id of a
portal rule), and :meth:`~repro.core.portal.RuleTemplate.instantiate`
binds it to the owner and the prefix of the announcement it rode on.

Layout
------

Every Stellar community uses ``type=0x80`` (the experimental two-octet-AS
specific type), ``global_admin = IXP ASN``, and a ``subtype`` selecting the
field being communicated:

===========  ==========================  =====================================
subtype      meaning                     local_admin payload (32 bit)
===========  ==========================  =====================================
``0x01``     selector + port             ``selector << 24 | port`` where the
                                          selector follows the paper: 1 = TCP
                                          source port, 2 = UDP source port,
                                          3 = TCP destination port, 4 = UDP
                                          destination port
``0x02``     IP protocol filter          IANA protocol number (0–255)
``0x03``     action                      1 = drop, 2 = shape
``0x04``     shape rate                  rate in Mbit/s
``0x05``     predefined rule reference   rule id from the customer portal
===========  ==========================  =====================================

A drop rule for UDP source port 123 therefore encodes to exactly two
communities: the selector/port community (``0x01``, ``2<<24 | 123``) and —
only if non-default — the action community.  Plain "drop" is the default
action, so the minimal signal stays a single community, matching the
paper's "single BGP announcement" requirement.

Encodable domain
----------------

The communities carry exactly these rules, and :meth:`~StellarCommunityCodec.encode`
refuses every other one with :class:`UnencodableRuleError` rather than
signal a different rule:

* any destination prefix (it rides in the NLRI), with no ``src_mac`` and
  no ``src_prefix`` — the layout has no field for either, and dropping
  one would broaden the rule to traffic from every peer;
* a source and/or destination port only together with protocol UDP or
  TCP, which the selector names; any 8-bit protocol number without a port;
* DROP, or SHAPE at a whole number of Mbit/s from 1 to 2^32 - 1, which the
  rate community carries exactly.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Optional

from ..bgp.communities import ExtendedCommunity
from ..ixp.qos import FilterAction, FlowMatch
from ..traffic.packet import IpProtocol
from .portal import RuleTemplate
from .rules import BlackholingRule

#: Experimental, two-octet AS specific extended community type.
STELLAR_COMMUNITY_TYPE = 0x80

# Subtypes.
SUBTYPE_PORT_SELECTOR = 0x01
SUBTYPE_PROTOCOL = 0x02
SUBTYPE_ACTION = 0x03
SUBTYPE_SHAPE_RATE = 0x04
SUBTYPE_PREDEFINED_RULE = 0x05

# Port selectors (paper §5.3: "2 refers to UDP source traffic").
SELECTOR_TCP_SRC_PORT = 1
SELECTOR_UDP_SRC_PORT = 2
SELECTOR_TCP_DST_PORT = 3
SELECTOR_UDP_DST_PORT = 4

ACTION_DROP = 1
ACTION_SHAPE = 2

#: Largest value a community's 32-bit local administrator field carries.
_MAX_PAYLOAD = 0xFFFFFFFF


class CommunityDecodeError(ValueError):
    """Raised when a set of extended communities is not a valid Stellar signal."""


class UnencodableRuleError(ValueError):
    """Raised by :meth:`StellarCommunityCodec.encode` for a rule outside the
    encodable domain: the communities would signal a different rule."""


class StellarCommunityCodec:
    """Bidirectional codec between blackholing rules and extended communities."""

    def __init__(self, ixp_asn: int) -> None:
        if not 0 < ixp_asn <= 0xFFFF:
            raise ValueError(
                "the two-octet-AS specific encoding requires a 16-bit IXP ASN, "
                f"got {ixp_asn}"
            )
        self.ixp_asn = ixp_asn

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _community(self, subtype: int, payload: int) -> ExtendedCommunity:
        return ExtendedCommunity(
            type=STELLAR_COMMUNITY_TYPE,
            subtype=subtype,
            global_admin=self.ixp_asn,
            local_admin=payload,
        )

    def is_stellar_community(self, community: ExtendedCommunity) -> bool:
        """True if the community belongs to this IXP's Stellar namespace."""
        return (
            community.type == STELLAR_COMMUNITY_TYPE
            and community.global_admin == self.ixp_asn
        )

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def encode(self, rule: BlackholingRule) -> set[ExtendedCommunity]:
        """Encode a rule into its extended-community representation.

        The destination prefix is carried by the BGP NLRI, not by the
        communities, so it does not appear here.  A rule outside the
        encodable domain raises :class:`UnencodableRuleError`.
        """
        communities: set[ExtendedCommunity] = set()
        match = rule.qos.match
        if match.src_mac is not None or match.src_prefix is not None:
            raise UnencodableRuleError(
                "the Stellar communities carry no source MAC or source prefix"
            )

        if match.src_port is not None or match.dst_port is not None:
            if match.protocol not in (IpProtocol.UDP, IpProtocol.TCP):
                raise UnencodableRuleError(
                    "port-based rules must specify protocol UDP or TCP to be "
                    "encodable as a Stellar community"
                )
            is_udp = match.protocol == IpProtocol.UDP
            if match.src_port is not None:
                selector = SELECTOR_UDP_SRC_PORT if is_udp else SELECTOR_TCP_SRC_PORT
                communities.add(
                    self._community(
                        SUBTYPE_PORT_SELECTOR, (selector << 24) | match.src_port
                    )
                )
            if match.dst_port is not None:
                selector = SELECTOR_UDP_DST_PORT if is_udp else SELECTOR_TCP_DST_PORT
                communities.add(
                    self._community(
                        SUBTYPE_PORT_SELECTOR, (selector << 24) | match.dst_port
                    )
                )
        elif match.protocol is not None:
            communities.add(self._community(SUBTYPE_PROTOCOL, int(match.protocol)))

        if rule.qos.action is FilterAction.SHAPE:
            rate_bps = rule.qos.shape_rate_bps
            if rate_bps % 1e6 or rate_bps > _MAX_PAYLOAD * 1e6:
                raise UnencodableRuleError(
                    f"a shape rate of {rate_bps:g} bit/s is not a whole number "
                    f"of Mbit/s from 1 to {_MAX_PAYLOAD}"
                )
            communities.add(self._community(SUBTYPE_ACTION, ACTION_SHAPE))
            communities.add(self._community(SUBTYPE_SHAPE_RATE, int(rate_bps // 1e6)))
        # Plain DROP is the default and may be omitted; we still emit it for
        # rules with no other community so the signal is never empty.
        elif not communities:
            communities.add(self._community(SUBTYPE_ACTION, ACTION_DROP))
        return communities

    def encode_predefined(self, predefined_rule_id: int) -> set[ExtendedCommunity]:
        """Encode a reference to a portal-defined rule."""
        if predefined_rule_id < 0 or predefined_rule_id > _MAX_PAYLOAD:
            raise ValueError("predefined rule id must fit in 32 bits")
        return {self._community(SUBTYPE_PREDEFINED_RULE, predefined_rule_id)}

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def decode(self, communities: Iterable[ExtendedCommunity]) -> RuleTemplate | int:
        """Decode a community set into the signalled rule.

        Returns the prefix-less template of an explicit rule, or the id of
        the portal rule the communities reference.
        """
        stellar = [c for c in communities if self.is_stellar_community(c)]
        if not stellar:
            raise CommunityDecodeError("no Stellar extended communities present")

        action = FilterAction.DROP
        protocol: Optional[int] = None
        src_port: Optional[int] = None
        dst_port: Optional[int] = None
        shape_rate_bps = 0.0
        predefined: Optional[int] = None

        for community in stellar:
            payload = community.local_admin
            if community.subtype == SUBTYPE_PORT_SELECTOR:
                selector = (payload >> 24) & 0xFF
                port = payload & 0xFFFF
                if selector in (SELECTOR_UDP_SRC_PORT, SELECTOR_UDP_DST_PORT):
                    protocol = IpProtocol.UDP
                elif selector in (SELECTOR_TCP_SRC_PORT, SELECTOR_TCP_DST_PORT):
                    protocol = IpProtocol.TCP
                else:
                    raise CommunityDecodeError(f"unknown port selector {selector}")
                if selector in (SELECTOR_UDP_SRC_PORT, SELECTOR_TCP_SRC_PORT):
                    src_port = port
                else:
                    dst_port = port
            elif community.subtype == SUBTYPE_PROTOCOL:
                # Any 8-bit protocol number, as FlowMatch takes and encode
                # emits; the ones IpProtocol names decode to its members.
                if payload > 0xFF:
                    raise CommunityDecodeError(
                        f"IP protocol number {payload} does not fit in 8 bits"
                    )
                try:
                    protocol = IpProtocol(payload)
                except ValueError:
                    protocol = payload
            elif community.subtype == SUBTYPE_ACTION:
                if payload == ACTION_DROP:
                    action = FilterAction.DROP
                elif payload == ACTION_SHAPE:
                    action = FilterAction.SHAPE
                else:
                    raise CommunityDecodeError(f"unknown action code {payload}")
            elif community.subtype == SUBTYPE_SHAPE_RATE:
                shape_rate_bps = float(payload) * 1e6
                action = FilterAction.SHAPE
            elif community.subtype == SUBTYPE_PREDEFINED_RULE:
                predefined = payload
            else:
                raise CommunityDecodeError(
                    f"unknown Stellar community subtype {community.subtype:#04x}"
                )

        if action is FilterAction.SHAPE and shape_rate_bps <= 0:
            raise CommunityDecodeError("shape action signalled without a rate")
        if predefined is not None:
            return predefined
        return RuleTemplate(
            name="signalled",
            match=FlowMatch(protocol=protocol, src_port=src_port, dst_port=dst_port),
            action=action,
            shape_rate_bps=shape_rate_bps,
        )
