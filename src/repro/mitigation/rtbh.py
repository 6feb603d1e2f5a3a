"""Remotely Triggered Black Hole (RTBH) baseline.

Classic IXP blackholing (§2.2): the victim announces the attacked prefix
(usually a /32) to the route server tagged with the IXP's blackholing
community.  Every *other* member that accepts the announcement rewrites its
next hop to the IXP's blackholing IP, so traffic it sends towards the
prefix is dropped at the IXP's null interface.  Two properties drive the
paper's measurement findings:

* **Collateral damage** — RTBH is all-or-nothing per prefix: legitimate
  traffic towards the prefix is dropped together with the attack (§2.3).
* **Limited compliance** — almost 70 % of members do not honour the
  blackholing community (§2.4), so most attack traffic keeps flowing
  (Fig. 3(c)).

The :class:`RtbhService` models the signalling/compliance side; the
:class:`RtbhMitigation` technique applies the resulting per-ingress-member
drop behaviour to traffic.  The data plane is columnar: it resolves every
active blackhole with one destination-prefix mask (most specific wins) and
one compliance membership mask per event.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..bgp.communities import rtbh_community
from ..bgp.messages import RouteAnnouncement, announcement
from ..bgp.prefix import Prefix, parse_prefix
from ..bgp.route_server import PolicyControl, RouteServer
from ..sim.rng import make_rng
from ..traffic.flowtable import FlowTable
from .base import (
    Dimension,
    MitigationOutcome,
    MitigationTechnique,
    Rating,
    member_mask,
    prefix_mask,
)


@dataclass
class BlackholeEvent:
    """One active RTBH blackhole: prefix + which members honour it."""

    prefix: Prefix
    victim_asn: int
    honoring_members: set[int] = field(default_factory=set)
    announced_at: float = 0.0
    policy_control: PolicyControl = field(default_factory=PolicyControl)

    def drops_traffic_from(self, ingress_member_asn: int) -> bool:
        """True if traffic entering via ``ingress_member_asn`` is dropped."""
        return ingress_member_asn in self.honoring_members


class RtbhService:
    """The IXP's classic blackholing service.

    Member compliance is drawn per member: either from the explicit
    ``honors_rtbh`` flags of the member objects handed in, or — when a
    plain compliance rate is given — by an independent Bernoulli draw per
    member (deterministic under the configured seed).
    """

    def __init__(
        self,
        ixp_asn: int,
        route_server: Optional[RouteServer] = None,
        member_compliance: Optional[dict[int, bool]] = None,
        compliance_rate: float = 0.30,
        seed: int | None = None,
    ) -> None:
        if not 0 <= compliance_rate <= 1:
            raise ValueError("compliance_rate must lie in [0, 1]")
        self.ixp_asn = ixp_asn
        self.route_server = route_server
        self.compliance_rate = compliance_rate
        self._rng = make_rng(seed)
        self._member_compliance: dict[int, bool] = dict(member_compliance or {})
        self._events: list[BlackholeEvent] = []

    # ------------------------------------------------------------------
    # Compliance model
    # ------------------------------------------------------------------
    def member_honors(self, member_asn: int) -> bool:
        """Whether a member honours RTBH signals (memoised per member)."""
        if member_asn not in self._member_compliance:
            self._member_compliance[member_asn] = bool(
                self._rng.random() < self.compliance_rate
            )
        return self._member_compliance[member_asn]

    # ------------------------------------------------------------------
    # Signalling
    # ------------------------------------------------------------------
    def request_blackhole(
        self,
        victim_asn: int,
        prefix: "str | Prefix",
        peer_asns: Sequence[int],
        time: float = 0.0,
        policy_control: Optional[PolicyControl] = None,
    ) -> BlackholeEvent:
        """The victim announces a blackhole for ``prefix``.

        ``peer_asns`` are the members whose traffic could reach the victim;
        the event records which of them honour the signal.  If a route
        server is attached, the announcement is also pushed through it so
        the full signalling path (policy checks, next-hop rewrite,
        propagation) is exercised.
        """
        prefix = parse_prefix(prefix)
        control = policy_control if policy_control is not None else PolicyControl()

        if self.route_server is not None:
            route = announcement(
                prefix,
                victim_asn,
                next_hop=f"203.0.113.{victim_asn % 250 + 1}",
            )
            route = RouteAnnouncement(
                prefix=route.prefix,
                attributes=route.attributes.with_communities(
                    rtbh_community(self.ixp_asn)
                ),
                path_id=route.path_id,
            )
            self.route_server.announce(route, control)

        targets = control.targets(set(peer_asns) | {victim_asn}, victim_asn)
        honoring = {asn for asn in targets if self.member_honors(asn)}
        event = BlackholeEvent(
            prefix=prefix,
            victim_asn=victim_asn,
            honoring_members=honoring,
            announced_at=time,
            policy_control=control,
        )
        self._events.append(event)
        return event

    def withdraw_blackhole(self, victim_asn: int, prefix: "str | Prefix") -> bool:
        """Withdraw an active blackhole.  Returns True if one was active."""
        prefix = parse_prefix(prefix)
        before = len(self._events)
        self._events = [
            event
            for event in self._events
            if not (event.victim_asn == victim_asn and event.prefix == prefix)
        ]
        if self.route_server is not None and len(self._events) != before:
            self.route_server.withdraw(prefix, victim_asn)
        return len(self._events) != before

    def active_events(self) -> list[BlackholeEvent]:
        return list(self._events)

    def event_for(self, dst_ip: str) -> Optional[BlackholeEvent]:
        """The most specific active blackhole covering a destination IP."""
        covering = [
            event for event in self._events if event.prefix.contains_address(dst_ip)
        ]
        if not covering:
            return None
        return max(covering, key=lambda event: event.prefix.length)


class RtbhMitigation(MitigationTechnique):
    """RTBH as a :class:`MitigationTechnique`."""

    name = "RTBH"
    ratings = {
        Dimension.GRANULARITY: Rating.DISADVANTAGE,
        Dimension.SIGNALING_COMPLEXITY: Rating.DISADVANTAGE,
        Dimension.COOPERATION: Rating.DISADVANTAGE,
        Dimension.RESOURCE_SHARING: Rating.ADVANTAGE,
        Dimension.TELEMETRY: Rating.DISADVANTAGE,
        Dimension.SCALABILITY: Rating.ADVANTAGE,
        Dimension.RESOURCES: Rating.ADVANTAGE,
        Dimension.PERFORMANCE: Rating.ADVANTAGE,
        Dimension.REACTION_TIME: Rating.ADVANTAGE,
        Dimension.COSTS: Rating.ADVANTAGE,
    }

    def __init__(self, service: RtbhService) -> None:
        self.service = service

    def _partition(self, table: FlowTable, interval: float) -> MitigationOutcome:
        """Vectorized RTBH: per-event destination match + compliance mask."""
        discard = np.zeros(len(table), dtype=bool)
        unassigned = np.ones(len(table), dtype=bool)
        # Most specific prefix wins, as in :meth:`RtbhService.event_for`
        # (stable sort keeps announcement order among equal lengths).
        events = sorted(
            self.service.active_events(), key=lambda event: event.prefix.length, reverse=True
        )
        for event in events:
            covered = unassigned & prefix_mask(table.dst_ip, event.prefix)
            if not covered.any():
                continue
            unassigned &= ~covered
            if event.honoring_members:
                discard |= covered & member_mask(table.ingress_asn, event.honoring_members)
        return MitigationOutcome(
            delivered_table=table.select(~discard),
            discarded_table=table.select(discard),
        )
