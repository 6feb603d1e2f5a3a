"""The signaling layer.

Members signal Advanced Blackholing requests to the IXP in one of two ways
(paper §4.2.1 / §4.3):

* **In-band, via BGP** — the member re-announces the prefix under attack to
  the route server, tagged with Stellar extended communities encoding the
  blackholing rule (or a reference to a predefined rule).  The route server
  applies its usual import policy ("routing hygiene": IRR, RPKI, bogons) and
  forwards accepted announcements southbound to the blackholing controller,
  each with its own ADD-PATH path id.  Crucially the signal is *not*
  reflected to the other members.
* **Out-of-band, via the customer portal API** — mainly used to manage
  predefined rules, but the reproduction also exposes a direct API signal
  path so the signalling-interface ablation can compare the two.

The signaling layer owns authentication/authorisation: a member may only
request blackholing for prefixes it is authorised to originate.  Both
paths raise :class:`SignalRejectedError` for an unauthorised prefix, and
for a rule the Stellar communities cannot carry exactly (a source MAC or
source prefix, a shape rate that is not a whole number of Mbit/s, a port
without UDP or TCP; see :mod:`repro.core.community_codec`), before the
route server or the controller sees anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..bgp.attributes import PathAttributes
from ..bgp.communities import ExtendedCommunity
from ..bgp.messages import RouteAnnouncement, RouteWithdrawal, UpdateMessage
from ..bgp.prefix import Prefix, parse_prefix
from ..bgp.route_server import PolicyControl, RouteServer
from .community_codec import StellarCommunityCodec, UnencodableRuleError
from .controller import BlackholingController
from .portal import CustomerPortal
from .rules import BlackholingRule


#: ``SignalResult.detail`` of a withdrawal that found nothing to withdraw:
#: the member held no signal for the prefix on that path.
NOTHING_WITHDRAWN = "nothing to withdraw"


class SignalRejectedError(RuntimeError):
    """Raised when a signal fails validation (authorisation or encoding)."""


@dataclass(frozen=True)
class SignalResult:
    """Outcome of one signalling operation (if accepted, its installed rule)."""

    accepted: bool
    via: str  # "bgp" | "api"
    rule: Optional[BlackholingRule] = None
    detail: str = ""


class SignalingLayer:
    """Member-facing entry point for Advanced Blackholing signals."""

    def __init__(
        self,
        route_server: RouteServer,
        controller: BlackholingController,
        portal: Optional[CustomerPortal] = None,
        codec: Optional[StellarCommunityCodec] = None,
    ) -> None:
        self.route_server = route_server
        self.controller = controller
        self.portal = portal if portal is not None else controller.portal
        self.codec = codec if codec is not None else controller.codec
        # Wire the controller as a southbound consumer of the route server.
        self.route_server.register_consumer(self.controller.process_update)
        # API signals are distinguished by synthetic ADD-PATH path ids so a
        # member can hold several concurrent rules for the same prefix (one
        # BGP announcement can only carry one rule at a time).  They come
        # from the route server's counter, so an API path never shares its
        # id with a route-server path: the controller matches a withdrawal
        # by path id alone.
        #: The API path ids each (member, prefix) holds, so a withdrawal
        #: removes exactly the caller's API signals for that prefix.
        self._api_paths: dict[tuple[int, Prefix], list[int]] = {}

    # ------------------------------------------------------------------
    # Authorisation
    # ------------------------------------------------------------------
    def _authorised(self, member_asn: int, prefix: Prefix) -> bool:
        """A member may only blackhole prefixes it is authorised to originate."""
        policy = self.route_server.policy
        if not policy.require_irr:
            return True
        return policy.irr.is_authorized(prefix, member_asn)

    def _encode(self, rule: BlackholingRule) -> set[ExtendedCommunity]:
        """The rule's communities; a rule they cannot carry is rejected."""
        try:
            return self.codec.encode(rule)
        except UnencodableRuleError as error:
            raise SignalRejectedError(f"{rule} cannot be signalled: {error}") from error

    # ------------------------------------------------------------------
    # BGP signalling
    # ------------------------------------------------------------------
    def signal_via_bgp(
        self,
        rule: BlackholingRule,
        next_hop: str = "",
        policy_control: Optional[PolicyControl] = None,
    ) -> SignalResult:
        """Signal a rule by announcing its prefix with Stellar communities."""
        communities = self._encode(rule)
        return self._announce(
            member_asn=rule.owner_asn,
            prefix=rule.qos.match.dst_prefix,
            communities=communities,
            next_hop=next_hop,
            policy_control=policy_control,
            rule=rule,
        )

    def signal_predefined_via_bgp(
        self,
        member_asn: int,
        prefix: "str | Prefix",
        predefined_rule_id: int,
        next_hop: str = "",
    ) -> SignalResult:
        """Signal a predefined (portal) rule by its identifier."""
        prefix = parse_prefix(prefix)
        # Resolve eagerly so an invalid reference is reported to the member,
        # mirroring the portal's validation.
        rule = self.portal.resolve(predefined_rule_id, member_asn, prefix)
        communities = self.codec.encode_predefined(predefined_rule_id)
        return self._announce(
            member_asn=member_asn,
            prefix=prefix,
            communities=communities,
            next_hop=next_hop,
            policy_control=None,
            rule=rule,
        )

    def _announce(
        self,
        member_asn: int,
        prefix: Prefix,
        communities: set[ExtendedCommunity],
        next_hop: str,
        policy_control: Optional[PolicyControl],
        rule: Optional[BlackholingRule],
    ) -> SignalResult:
        if not self._authorised(member_asn, prefix):
            raise SignalRejectedError(
                f"AS{member_asn} is not authorised to blackhole {prefix}"
            )
        attributes = PathAttributes(
            as_path=(member_asn,),
            next_hop=next_hop or f"203.0.113.{member_asn % 250 + 1}",
        ).with_extended_communities(*communities)
        announcement = RouteAnnouncement(prefix=prefix, attributes=attributes)
        result = self.route_server.announce(announcement, policy_control)
        if not result.accepted:
            return SignalResult(
                accepted=False,
                via="bgp",
                rule=rule,
                detail=f"route server rejected the announcement: {result.reason.value}",
            )
        return SignalResult(accepted=True, via="bgp", rule=self._arrived())

    def _arrived(self) -> Optional[BlackholingRule]:
        """The rule of the path the controller received last: each path
        has a fresh path id, so it is the one just signalled."""
        return self.controller.rule_for_path(next(reversed(self.controller.paths)))

    def withdraw_via_bgp(self, member_asn: int, prefix: "str | Prefix") -> SignalResult:
        """Withdraw the signalling announcement (implicitly removing rules).

        The result's ``detail`` is ``"withdrawn"``, or ``NOTHING_WITHDRAWN``
        when the member announced nothing for the prefix.
        """
        prefix = parse_prefix(prefix)
        held = self.route_server.withdraw(prefix, member_asn)
        return SignalResult(
            accepted=True, via="bgp", detail="withdrawn" if held else NOTHING_WITHDRAWN
        )

    # ------------------------------------------------------------------
    # API signalling
    # ------------------------------------------------------------------
    def signal_via_api(self, rule: BlackholingRule) -> SignalResult:
        """Signal a rule through the customer-facing API (bypassing BGP).

        The API path still enforces prefix authorisation and the route
        server's import policy (RPKI, bogons, prefix lengths), then feeds
        the controller directly with a synthetic announcement so that rule
        tracking, diffing and deployment behave identically to the BGP path.
        An announcement the import policy rejects reaches no controller.
        """
        prefix = rule.qos.match.dst_prefix
        if not self._authorised(rule.owner_asn, prefix):
            raise SignalRejectedError(
                f"AS{rule.owner_asn} is not authorised to blackhole {prefix}"
            )
        communities = self._encode(rule)
        attributes = PathAttributes(
            as_path=(rule.owner_asn,),
            next_hop=f"203.0.113.{rule.owner_asn % 250 + 1}",
        ).with_extended_communities(*communities)
        verdict = self.route_server.policy.evaluate(
            RouteAnnouncement(prefix=prefix, attributes=attributes)
        )
        if not verdict.accepted:
            return SignalResult(
                accepted=False,
                via="api",
                rule=rule,
                detail=f"route server rejected the announcement: {verdict.reason.value}",
            )
        path_id = self.route_server.next_path_id()
        announcement = RouteAnnouncement(
            prefix=prefix, attributes=attributes, path_id=path_id
        )
        key = (rule.owner_asn, prefix)
        self._api_paths.setdefault(key, []).append(path_id)
        self.controller.process_update(
            UpdateMessage(sender_asn=self.route_server.ixp_asn, announcements=(announcement,))
        )
        return SignalResult(accepted=True, via="api", rule=self._arrived())

    def withdraw_via_api(self, member_asn: int, prefix: "str | Prefix") -> SignalResult:
        """Withdraw every rule a member signalled for a prefix via the API.

        Only the member's own API paths go: its BGP-signalled rule for the
        prefix stays (the route server still holds that route), and so do
        other members' API rules for the same prefix.  The result's
        ``detail`` is ``"withdrawn"``, or ``NOTHING_WITHDRAWN`` when the
        member held no API signal for the prefix.
        """
        prefix = parse_prefix(prefix)
        path_ids = self._api_paths.pop((member_asn, prefix), [])
        if not path_ids:
            return SignalResult(accepted=True, via="api", detail=NOTHING_WITHDRAWN)
        self.controller.process_update(
            UpdateMessage(
                sender_asn=self.route_server.ixp_asn,
                withdrawals=tuple(
                    RouteWithdrawal(prefix=prefix, path_id=path_id)
                    for path_id in path_ids
                ),
            )
        )
        return SignalResult(accepted=True, via="api", detail="withdrawn")
