"""The blackholing controller.

The controller is the heart of Stellar's management layer (paper §4.4):

* it maintains an iBGP session with the route server (with ADD-PATH, so it
  sees every accepted path rather than only the best one),
* a *BGP parser* consumes the message stream and a *BGP processor*
  interprets the semantics, storing announced routes in a local RIB,
* after every update it derives the set of blackholing rules requested by
  the members (by decoding the Stellar extended communities, resolving
  predefined-rule references through the customer portal, and translating
  plain RTBH announcements into drop-all rules),
* the difference against the previously active rule set yields change
  requests for the victim's egress port, which the controller enqueues on
  the fabric's :class:`~repro.ixp.service.ControlPlaneService`: a
  withdrawn rule becomes a ``remove`` by rule id, an added or updated one
  an ``install`` (a router replaces a rule id the port already holds),
  removals first so the TCAM space they free can hold the installs.  The
  service paces them per edge router with the paper's token bucket and
  deploys each as an egress QoS rule (§4.4, §4.5).  A change the
  service rejects with a ``retry_after`` (the member's change budget or
  a full lane) is not taken into the active rule set, so the diff sends
  it again once that time has passed (:meth:`retry_due`); a change
  refused for good (an unknown member) is reported once.  An install the
  router's TCAM cannot hold leaves the active rule set when the service
  resolves it (:meth:`apply_resolutions`), so the next diff sends it
  again.

The controller is *passive*: it never announces routes itself.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace
from typing import Optional

from ..bgp.messages import RouteAnnouncement, UpdateMessage
from ..bgp.rib import RoutingInformationBase
from ..bgp.session import BgpSession, SessionType
from ..ixp.qos import FlowMatch
from ..ixp.service import ChangeRequest, ControlPlaneService, ServiceResponse
from .community_codec import CommunityDecodeError, StellarCommunityCodec
from .portal import CustomerPortal
from .rules import BlackholingRule

#: Comparison slack for retry times.
_EPS = 1e-9


@dataclass
class ControllerStats:
    """Operational counters of the controller."""

    updates_processed: int = 0
    announcements_seen: int = 0
    withdrawals_seen: int = 0
    signals_decoded: int = 0
    decode_errors: int = 0
    rules_added: int = 0
    rules_removed: int = 0
    rules_updated: int = 0


class BlackholingController:
    """Tracks blackholing rules signalled by members and enqueues their changes."""

    def __init__(
        self,
        ixp_asn: int,
        service: ControlPlaneService,
        portal: Optional[CustomerPortal] = None,
        codec: Optional[StellarCommunityCodec] = None,
        translate_rtbh: bool = True,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.ixp_asn = ixp_asn
        self.codec = codec if codec is not None else StellarCommunityCodec(ixp_asn)
        self.portal = portal if portal is not None else CustomerPortal()
        self.service = service
        #: Whether classic RTBH announcements (standard ``:666`` community)
        #: are also translated into drop-all rules on the victim's port.
        self.translate_rtbh = translate_rtbh
        self._clock = clock if clock is not None else (lambda: 0.0)
        self.rib = RoutingInformationBase()
        self.session = BgpSession(
            local_asn=ixp_asn,
            peer_asn=ixp_asn,
            session_type=SessionType.IBGP,
            add_path=True,
            on_update=self.process_update,
        )
        self.session.open()
        self.stats = ControllerStats()
        #: Currently active rules, keyed by their identity ``(owner_asn,
        #: qos.match)``: two signals with the same key but a different
        #: action are an *update* of one rule.  An update keeps the active
        #: rule's id, so the router replaces it in place.
        self._active_rules: dict[tuple[int, FlowMatch], BlackholingRule] = {}
        #: Requests the service rejected at enqueue, until taken.
        self._rejections: list[tuple[ChangeRequest, ServiceResponse]] = []
        #: Keys whose change the service rejected with a ``retry_after``,
        #: mapped to the time the change may be sent again.
        self._retry_at: dict[tuple[int, FlowMatch], float] = {}

    # ------------------------------------------------------------------
    # BGP parser / processor
    # ------------------------------------------------------------------
    def process_update(self, update: UpdateMessage) -> list[ChangeRequest]:
        """Consume one UPDATE from the route server and enqueue its changes."""
        self.stats.updates_processed += 1
        for announcement in update.announcements:
            self.stats.announcements_seen += 1
            self.rib.add(announcement)
        for withdrawal in update.withdrawals:
            self.stats.withdrawals_seen += 1
            # ADD-PATH: withdrawals carry the path id of the withdrawn path.
            for route in self.rib.routes_for(withdrawal.prefix):
                if route.path_id == withdrawal.path_id:
                    self.rib.remove_route(route)
        return self._reconcile()

    # ------------------------------------------------------------------
    # Signal interpretation
    # ------------------------------------------------------------------
    def _rule_from_announcement(
        self, announcement: RouteAnnouncement
    ) -> Optional[BlackholingRule]:
        """Derive the blackholing rule requested by one announcement, if any."""
        attrs = announcement.attributes
        owner = attrs.origin_asn
        if owner is None:
            return None

        stellar_communities = [
            community
            for community in attrs.extended_communities
            if self.codec.is_stellar_community(community)
        ]
        if stellar_communities:
            try:
                rule, predefined_id = self.codec.to_rule(
                    stellar_communities, owner_asn=owner, dst_prefix=announcement.prefix
                )
            except CommunityDecodeError:
                self.stats.decode_errors += 1
                return None
            self.stats.signals_decoded += 1
            if predefined_id is not None:
                try:
                    return self.portal.resolve(
                        predefined_id, member_asn=owner, dst_prefix=announcement.prefix
                    )
                except (KeyError, PermissionError):
                    self.stats.decode_errors += 1
                    return None
            return rule

        if self.translate_rtbh and attrs.has_blackhole_community:
            # Classic RTBH signal: drop everything towards the prefix at the
            # victim's egress port (no cooperation needed, unlike real RTBH).
            self.stats.signals_decoded += 1
            return BlackholingRule.create(owner, FlowMatch(dst_prefix=announcement.prefix))
        return None

    def desired_rules(self) -> dict[tuple[int, FlowMatch], BlackholingRule]:
        """The rule set implied by the current RIB contents."""
        desired: dict[tuple[int, FlowMatch], BlackholingRule] = {}
        for route in self.rib.routes():
            rule = self._rule_from_announcement(route)
            if rule is None:
                continue
            key = (rule.owner_asn, rule.qos.match)
            # Preserve a stable rule id across updates of the same rule.
            active = self._active_rules.get(key)
            if active is not None and rule.qos.rule_id != active.qos.rule_id:
                rule = replace(rule, qos=replace(rule.qos, rule_id=active.qos.rule_id))
            desired[key] = rule
        return desired

    # ------------------------------------------------------------------
    # Reconciliation (RIB diff → change requests)
    # ------------------------------------------------------------------
    def _reconcile(self) -> list[ChangeRequest]:
        now = self._clock()
        desired = self.desired_rules()
        # (key, rule to commit or None for a removal, request) per change.
        # Removals go first, so the TCAM space a withdrawal frees can hold
        # an install of the same diff.
        changes: list[tuple[tuple[int, FlowMatch], Optional[BlackholingRule], ChangeRequest]] = []
        for key, rule in self._active_rules.items():
            if key not in desired:
                request = self.service.make_request(
                    rule.owner_asn, "remove", rule_id=rule.qos.rule_id, at=now
                )
                changes.append((key, None, request))
        for key, rule in desired.items():
            # desired_rules gave the rule the active one's id, so equality
            # means an unchanged action and rate.
            if self._active_rules.get(key) == rule:
                continue
            request = self.service.make_request(
                rule.owner_asn, "install", rules=(rule.qos,), at=now
            )
            changes.append((key, rule, request))

        retry_at: dict[tuple[int, FlowMatch], float] = {}
        requests: list[ChangeRequest] = []
        for key, rule, request in changes:
            held_until = self._retry_at.get(key)
            if held_until is not None and now < held_until - _EPS:
                retry_at[key] = held_until
                continue
            requests.append(request)
            rejection = self.service.enqueue(request)
            if rejection is not None:
                self._rejections.append((request, rejection))
                if rejection.retry_after is not None:
                    # Keep the key where it was, so the diff sends the
                    # change again once the service allows it.
                    retry_at[key] = now + rejection.retry_after
                    continue
            self._commit(key, rule)
        self._retry_at = retry_at
        return requests

    def _commit(
        self, key: tuple[int, FlowMatch], rule: Optional[BlackholingRule]
    ) -> None:
        """Record a change the service took (or refused for good)."""
        if rule is None:
            del self._active_rules[key]
            self.stats.rules_removed += 1
        else:
            if key in self._active_rules:
                self.stats.rules_updated += 1
            else:
                self.stats.rules_added += 1
            self._active_rules[key] = rule

    def retry_due(self) -> list[ChangeRequest]:
        """Send again the changes whose ``retry_after`` has passed."""
        now = self._clock()
        if any(now >= at - _EPS for at in self._retry_at.values()):
            return self._reconcile()
        return []

    def apply_resolutions(
        self, resolutions: list[tuple[ChangeRequest, ServiceResponse]]
    ) -> None:
        """Drop the installs the TCAM refused from the active rule set.

        A refused replacement has taken the old rule off the port too
        (as a sequential install does), so the key holds no rule at all.
        """
        for request, response in resolutions:
            if response.reason != "tcam-exhausted":
                continue
            refused = request.rules
            for key, rule in list(self._active_rules.items()):
                if rule.owner_asn == request.member_asn and rule.qos in refused:
                    del self._active_rules[key]

    def take_rejections(self) -> list[tuple[ChangeRequest, ServiceResponse]]:
        """The requests the service rejected at enqueue since the last call."""
        rejections, self._rejections = self._rejections, []
        return rejections

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def active_rules(self) -> list[BlackholingRule]:
        """Rules currently requested by the members (post-reconciliation)."""
        return list(self._active_rules.values())
