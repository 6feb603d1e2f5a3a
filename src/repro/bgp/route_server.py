"""IXP route server.

The route server provides multi-lateral peering: every member maintains a
single eBGP session with it and thereby exchanges routes with all other
route-server users (paper §2.1).  For the reproduction the route server

* validates every member announcement against the import policy
  (IRR / RPKI / bogons / prefix-length hygiene),
* stores accepted routes in a multi-path RIB,
* propagates accepted announcements to the other members' sessions
  (honouring per-announcement policy-control communities such as
  "announce to all except AS x" used in Fig. 3(b)),
* feeds *all* accepted paths to registered southbound consumers (the
  Stellar blackholing controller) over iBGP with ADD-PATH — crucially it
  does **not** reflect Advanced Blackholing signals back to the members
  (paper §4.3).
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from dataclasses import dataclass
from typing import Optional

from .messages import (
    RouteAnnouncement,
    RouteWithdrawal,
    UpdateMessage,
)
from .policy import ImportPolicy, PolicyResult, permissive_policy
from .prefix import Prefix
from .rib import RoutingInformationBase
from .session import BgpSession, SessionType


@dataclass(frozen=True)
class PolicyControl:
    """Per-announcement export control expressed via IXP action communities.

    ``announce_to_all`` with an ``except_asns`` set models the "All-k"
    categories of Fig. 3(b) (announce to all route-server members except k
    of them); when ``announce_to_all`` is False, ``only_asns`` lists the
    explicit targets.
    """

    announce_to_all: bool = True
    except_asns: frozenset[int] = frozenset()
    only_asns: frozenset[int] = frozenset()

    def targets(self, members: set[int], sender: int) -> set[int]:
        """Resolve the member ASNs this announcement is exported to."""
        candidates = set(members) - {sender}
        if self.announce_to_all:
            return candidates - set(self.except_asns)
        return candidates & set(self.only_asns)

    @property
    def category(self) -> str:
        """The Fig. 3(b) category label for this control."""
        if self.announce_to_all:
            if not self.except_asns:
                return "All"
            return f"All-{len(self.except_asns)}"
        return str(len(self.only_asns))


class RouteServer:
    """Multi-lateral peering route server with import policy."""

    def __init__(
        self,
        ixp_asn: int,
        policy: Optional[ImportPolicy] = None,
        blackhole_next_hop: str = "192.0.2.1",
    ) -> None:
        self.ixp_asn = ixp_asn
        self.policy = policy if policy is not None else permissive_policy()
        #: Next hop installed on blackholed routes (the IXP's null interface).
        self.blackhole_next_hop = blackhole_next_hop
        self.rib = RoutingInformationBase()
        self._member_sessions: dict[int, BgpSession] = {}
        #: Southbound consumers (e.g. the Stellar blackholing controller).
        self._consumers: list[Callable[[UpdateMessage], None]] = []
        self._path_ids = itertools.count(1)

    # ------------------------------------------------------------------
    # Membership / sessions
    # ------------------------------------------------------------------
    def connect_member(self, member_asn: int) -> BgpSession:
        """Establish (or return) the eBGP session with a member."""
        if member_asn == self.ixp_asn:
            raise ValueError("a member cannot use the IXP's own ASN")
        session = self._member_sessions.get(member_asn)
        if session is None:
            session = BgpSession(
                local_asn=self.ixp_asn,
                peer_asn=member_asn,
                session_type=SessionType.EBGP,
            )
            session.open()
            self._member_sessions[member_asn] = session
        return session

    @property
    def member_asns(self) -> set[int]:
        return set(self._member_sessions)

    def session_for(self, member_asn: int) -> Optional[BgpSession]:
        return self._member_sessions.get(member_asn)

    # ------------------------------------------------------------------
    # Southbound consumers (Stellar controller)
    # ------------------------------------------------------------------
    def register_consumer(self, consumer: Callable[[UpdateMessage], None]) -> None:
        """Register a southbound consumer fed with every accepted UPDATE."""
        self._consumers.append(consumer)

    # ------------------------------------------------------------------
    # Announcement processing
    # ------------------------------------------------------------------
    def receive_update(
        self,
        update: UpdateMessage,
        policy_control: Optional[PolicyControl] = None,
    ) -> list[PolicyResult]:
        """Process an UPDATE from a member.

        Returns the per-announcement policy results (in announcement
        order).  Accepted announcements are stored, propagated to the other
        members (per ``policy_control``) and forwarded southbound with a
        fresh ADD-PATH path id.
        """
        sender = update.sender_asn
        if sender not in self._member_sessions:
            self.connect_member(sender)
        control = policy_control if policy_control is not None else PolicyControl()

        results: list[PolicyResult] = []
        accepted: list[RouteAnnouncement] = []
        withdrawn: list[RouteWithdrawal] = []
        for ann in update.announcements:
            result = self.policy.evaluate(ann)
            results.append(result)
            if not result.accepted:
                continue
            # Implicit withdraw: a re-announcement of the same prefix by the
            # same member replaces the previously stored path.
            for existing in self.rib.routes_for(ann.prefix):
                if existing.attributes.neighbor_asn == sender:
                    self.rib.remove_route(existing)
                    withdrawn.append(
                        RouteWithdrawal(prefix=existing.prefix, path_id=existing.path_id)
                    )
            stored = RouteAnnouncement(
                prefix=ann.prefix,
                attributes=ann.attributes,
                path_id=next(self._path_ids),
            )
            self.rib.add(stored)
            accepted.append(stored)

        for withdrawal in update.withdrawals:
            for route in self.rib.routes_for(withdrawal.prefix):
                if route.attributes.neighbor_asn == sender:
                    self.rib.remove_route(route)
                    withdrawn.append(
                        RouteWithdrawal(prefix=route.prefix, path_id=route.path_id)
                    )

        if accepted or withdrawn:
            self._propagate(sender, accepted, withdrawn, control)
        return results

    def announce(
        self,
        announcement: RouteAnnouncement,
        policy_control: Optional[PolicyControl] = None,
    ) -> PolicyResult:
        """Convenience wrapper: process a single announcement."""
        sender = announcement.attributes.neighbor_asn
        if sender is None:
            raise ValueError("announcement must carry a non-empty AS path")
        update = UpdateMessage(sender_asn=sender, announcements=(announcement,))
        return self.receive_update(update, policy_control)[0]

    def withdraw(self, prefix: Prefix, sender_asn: int) -> None:
        """Convenience wrapper: withdraw a prefix previously announced."""
        update = UpdateMessage(
            sender_asn=sender_asn, withdrawals=(RouteWithdrawal(prefix=prefix),)
        )
        self.receive_update(update)

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------
    def _propagate(
        self,
        sender: int,
        announcements: list[RouteAnnouncement],
        withdrawals: list[RouteWithdrawal],
        control: PolicyControl,
    ) -> None:
        # RTBH semantics: when a member accepts a blackhole announcement,
        # the next hop is rewritten to the IXP's blackholing IP so traffic
        # is dropped at the IXP's null interface (paper §2.2).  Advanced
        # Blackholing signals (extended communities without the RTBH
        # standard community) are *not* reflected to the members at all;
        # they are only forwarded southbound to the controller.
        member_facing: list[RouteAnnouncement] = []
        for ann in announcements:
            if ann.attributes.extended_communities and not ann.is_blackhole_request:
                continue  # Stellar signal: IXP-internal only.
            if ann.is_blackhole_request:
                ann = RouteAnnouncement(
                    prefix=ann.prefix,
                    attributes=ann.attributes.with_next_hop(self.blackhole_next_hop),
                    path_id=ann.path_id,
                )
            member_facing.append(ann)

        if member_facing or withdrawals:
            targets = control.targets(self.member_asns, sender)
            for member_asn in sorted(targets):
                session = self._member_sessions[member_asn]
                if not session.is_established:
                    continue
                session.deliver(
                    UpdateMessage(
                        sender_asn=self.ixp_asn,
                        announcements=tuple(member_facing),
                        withdrawals=tuple(withdrawals),
                    )
                )

        # Southbound: the controller sees every accepted path (ADD-PATH).
        if announcements or withdrawals:
            southbound = UpdateMessage(
                sender_asn=self.ixp_asn,
                announcements=tuple(announcements),
                withdrawals=tuple(withdrawals),
            )
            for consumer in self._consumers:
                consumer(southbound)
