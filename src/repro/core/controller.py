"""The blackholing controller.

The controller is the heart of Stellar's management layer (paper §4.4):

* the route server hands it every accepted path (ADD-PATH: each
  southbound path carries its own path id, so the controller sees all
  paths for a prefix rather than only the best one) by calling
  :meth:`BlackholingController.process_update`; there is no iBGP session
  object in between,
* each announced path is decoded once, when it arrives, into the rule it
  requests (by decoding the Stellar extended communities, resolving
  predefined-rule references through the customer portal, and translating
  plain RTBH announcements into drop-all rules); the controller keeps one
  entry per path, keyed ``(prefix, neighbour ASN, path id)`` in arrival
  order, holding that rule and no route,
* after every update the rules of those entries form the desired rule
  set, and its difference against the previously active rule set yields change
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
from ..bgp.rib import RibKey, rib_key
from ..ixp.qos import FlowMatch
from ..ixp.service import ChangeRequest, ControlPlaneService, ServiceResponse
from .community_codec import CommunityDecodeError, StellarCommunityCodec
from .portal import CustomerPortal, RuleTemplate
from .rules import BlackholingRule

#: Comparison slack for retry times.
_EPS = 1e-9

#: What a classic RTBH announcement requests: drop everything to the prefix.
_DROP_ALL = RuleTemplate(name="rtbh-drop-all")


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
        #: The rule each announced path decoded to (``None`` for a path
        #: that requests none), in arrival order.
        self.paths: dict[RibKey, Optional[BlackholingRule]] = {}
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
            # A re-announcement of a path replaces its rule in place.
            self.paths[rib_key(announcement)] = self._rule_from_announcement(announcement)
        for withdrawal in update.withdrawals:
            self.stats.withdrawals_seen += 1
            # ADD-PATH: withdrawals carry the path id of the withdrawn path.
            for key in [
                key
                for key in self.paths
                if key[0] == withdrawal.prefix and key[2] == withdrawal.path_id
            ]:
                del self.paths[key]
        return self._reconcile()

    # ------------------------------------------------------------------
    # Signal interpretation
    # ------------------------------------------------------------------
    def _rule_from_announcement(
        self, announcement: RouteAnnouncement
    ) -> Optional[BlackholingRule]:
        """Decode the blackholing rule one announcement requests, if any."""
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
                signal = self.codec.decode(stellar_communities)
            except CommunityDecodeError:
                self.stats.decode_errors += 1
                return None
            self.stats.signals_decoded += 1
            if isinstance(signal, int):
                try:
                    return self.portal.resolve(
                        signal, member_asn=owner, dst_prefix=announcement.prefix
                    )
                except (KeyError, PermissionError):
                    self.stats.decode_errors += 1
                    return None
            return signal.instantiate(owner, announcement.prefix)

        if self.translate_rtbh and attrs.has_blackhole_community:
            # Classic RTBH signal: drop everything towards the prefix at the
            # victim's egress port (no cooperation needed, unlike real RTBH).
            self.stats.signals_decoded += 1
            return _DROP_ALL.instantiate(owner, announcement.prefix)
        return None

    def desired_rules(self) -> dict[tuple[int, FlowMatch], BlackholingRule]:
        """The rule set the announced paths request."""
        rules = map(self._tracked, filter(None, self.paths.values()))
        return {(rule.owner_asn, rule.qos.match): rule for rule in rules}

    def rule_for_path(self, key: RibKey) -> Optional[BlackholingRule]:
        """The rule path ``key`` requests (``None`` if none), under its tracked id."""
        rule = self.paths.get(key)
        return None if rule is None else self._tracked(rule)

    def _tracked(self, rule: BlackholingRule) -> BlackholingRule:
        """``rule`` under the id of the active rule it updates: updates keep their id."""
        active = self._active_rules.get((rule.owner_asn, rule.qos.match))
        if active is not None and rule.qos.rule_id != active.qos.rule_id:
            rule = replace(rule, qos=replace(rule.qos, rule_id=active.qos.rule_id))
        return rule

    # ------------------------------------------------------------------
    # Reconciliation (rule-set diff → change requests)
    # ------------------------------------------------------------------
    def _reconcile(self) -> list[ChangeRequest]:
        now = self._clock()
        desired = self.desired_rules()
        # (key, rule to commit or None for a removal) per change.  Removals
        # go first, so the TCAM space a withdrawal frees can hold an
        # install of the same diff.
        changes: list[tuple[tuple[int, FlowMatch], Optional[BlackholingRule]]] = [
            (key, None) for key in self._active_rules if key not in desired
        ]
        # desired_rules gave each rule the active one's id, so equality
        # means an unchanged action and rate.
        changes += [
            (key, rule)
            for key, rule in desired.items()
            if self._active_rules.get(key) != rule
        ]

        retry_at: dict[tuple[int, FlowMatch], float] = {}
        requests: list[ChangeRequest] = []
        for key, rule in changes:
            held_until = self._retry_at.get(key)
            if held_until is not None and now < held_until - _EPS:
                # Held for a retry_after: no request, so no request id.
                retry_at[key] = held_until
                continue
            if rule is None:
                active = self._active_rules[key]
                request = self.service.make_request(
                    active.owner_asn, "remove", rule_id=active.qos.rule_id, at=now
                )
            else:
                request = self.service.make_request(
                    rule.owner_asn, "install", rules=(rule.qos,), at=now
                )
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
