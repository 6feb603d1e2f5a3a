"""The Stellar system facade.

Wires the three layers of the architecture (paper Fig. 5) together over an
IXP fabric:

* **signaling** — route server + :class:`~repro.core.signaling.SignalingLayer`
  + customer portal,
* **management** — :class:`~repro.core.controller.BlackholingController`,
  which enqueues the RIB diff of member signals on the fabric's
  :class:`~repro.ixp.service.ControlPlaneService`; each edge router's lane
  paces the changes with the paper's token bucket (a burst of 10, then
  4.33 changes/s) and installs them as egress QoS rules,
* **filtering** — the per-port QoS policies of the
  :class:`~repro.ixp.fabric.SwitchingFabric`.

The facade exposes the operations experiments and examples need: connect
members, signal/withdraw mitigation requests (via BGP or API), advance the
control plane, push data-plane traffic through the IXP, and query telemetry.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import Optional

from ..bgp.policy import ImportPolicy, permissive_policy
from ..bgp.prefix import Prefix
from ..bgp.route_server import RouteServer
from ..ixp.fabric import FabricIntervalReport, SwitchingFabric
from ..ixp.member import IxpMember, MemberPopulation
from ..ixp.service import (
    ChangeRequest,
    ControlPlaneService,
    ServiceResponse,
    TokenBucketPacing,
)
from ..traffic.flowtable import FlowTable
from .community_codec import StellarCommunityCodec
from .controller import BlackholingController
from .portal import CustomerPortal
from .rules import BlackholingRule
from .signaling import SignalingLayer, SignalResult
from .telemetry import MemberTelemetryReport, TelemetryCollector


@dataclass
class StellarIntervalReport:
    """Combined control-plane + data-plane outcome of one simulation interval."""

    fabric_report: FabricIntervalReport
    #: The control plane's ``(request, response)`` resolutions before the
    #: interval: enqueue rejections, then the changes applied by its start.
    deployments: list[tuple[ChangeRequest, ServiceResponse]] = field(
        default_factory=list
    )

    @property
    def filtered_bits(self) -> float:
        return self.fabric_report.filtered_bits


class Stellar:
    """The Advanced Blackholing system deployed at an IXP."""

    def __init__(
        self,
        ixp_asn: int,
        fabric: Optional[SwitchingFabric] = None,
        policy: Optional[ImportPolicy] = None,
        translate_rtbh: bool = True,
    ) -> None:
        self.ixp_asn = ixp_asn
        self.fabric = fabric if fabric is not None else SwitchingFabric()
        self.route_server = RouteServer(
            ixp_asn=ixp_asn, policy=policy if policy is not None else permissive_policy()
        )
        self.portal = CustomerPortal()
        self.codec = StellarCommunityCodec(ixp_asn)
        self.service = ControlPlaneService(self.fabric, pacing=TokenBucketPacing())
        self._now = 0.0
        self.controller = BlackholingController(
            ixp_asn=ixp_asn,
            service=self.service,
            portal=self.portal,
            codec=self.codec,
            translate_rtbh=translate_rtbh,
            clock=lambda: self._now,
        )
        self.signaling = SignalingLayer(
            route_server=self.route_server,
            controller=self.controller,
            portal=self.portal,
            codec=self.codec,
        )
        self.telemetry = TelemetryCollector()

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def add_member(self, member: IxpMember, register_prefixes: bool = True) -> None:
        """Connect a member to the fabric and the route server."""
        self.fabric.connect_member(member)
        self._peer(member, register_prefixes)

    def add_members(self, members: Iterable[IxpMember]) -> None:
        """Connect new members to the fabric in one call, then peer each.

        ``members`` may be a :class:`~repro.ixp.member.MemberPopulation`;
        an ASN already connected raises ``ValueError``.
        """
        population = (
            members
            if isinstance(members, MemberPopulation)
            else MemberPopulation.from_members(members)
        )
        self.fabric.connect_population(population)
        for member in population:
            self._peer(member, register_prefixes=True)

    def _peer(self, member: IxpMember, register_prefixes: bool) -> None:
        if member.uses_route_server:
            self.route_server.connect_member(member.asn)
        if register_prefixes and self.route_server.policy.require_irr:
            self.route_server.policy.irr.register_many(member.prefixes, member.asn)

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self._now

    def advance_to(self, time: float) -> None:
        """Advance the system clock (control-plane timestamps)."""
        if time < self._now:
            raise ValueError(f"cannot move time backwards from {self._now} to {time}")
        self._now = time

    # ------------------------------------------------------------------
    # Member-facing operations
    # ------------------------------------------------------------------
    def request_mitigation(
        self, rule: BlackholingRule, via: str = "bgp"
    ) -> SignalResult:
        """Signal a blackholing rule (``via`` is ``"bgp"`` or ``"api"``)."""
        if via == "bgp":
            return self.signaling.signal_via_bgp(rule)
        if via == "api":
            return self.signaling.signal_via_api(rule)
        raise ValueError(f"unknown signalling path {via!r}; use 'bgp' or 'api'")

    def request_predefined_mitigation(
        self, member_asn: int, prefix: "str | Prefix", predefined_rule_id: int
    ) -> SignalResult:
        """Signal a predefined (portal) rule by its identifier."""
        return self.signaling.signal_predefined_via_bgp(
            member_asn, prefix, predefined_rule_id
        )

    def withdraw_mitigation(
        self, member_asn: int, prefix: "str | Prefix", via: str = "bgp"
    ) -> SignalResult:
        """Withdraw the mitigation for a prefix."""
        if via == "bgp":
            return self.signaling.withdraw_via_bgp(member_asn, prefix)
        if via == "api":
            return self.signaling.withdraw_via_api(member_asn, prefix)
        raise ValueError(f"unknown signalling path {via!r}; use 'bgp' or 'api'")

    # ------------------------------------------------------------------
    # Control plane / data plane stepping
    # ------------------------------------------------------------------
    def advance(
        self, now: Optional[float] = None
    ) -> list[tuple[ChangeRequest, ServiceResponse]]:
        """Apply the queued changes whose tokens are available by ``now``.

        First sends again the rejected changes whose ``retry_after`` has
        passed.  Returns the enqueue rejections since the last call, then
        the service's resolutions up to ``now`` (the current time if
        omitted).
        """
        if now is not None:
            self.advance_to(now)
        self.controller.retry_due()
        return self.controller.take_rejections() + self.service.advance(self._now)

    def deliver_traffic(
        self,
        flows: FlowTable,
        interval: float,
        interval_start: Optional[float] = None,
    ) -> StellarIntervalReport:
        """Process one observation interval: control plane first, then traffic."""
        if not isinstance(flows, FlowTable):
            raise TypeError(f"deliver_traffic takes a FlowTable, got {type(flows).__name__}")
        deployments = self.advance(interval_start)
        start = self._now
        fabric_report = self.fabric.deliver(flows, interval, start)
        self._record_telemetry(fabric_report, interval, start)
        self._now = start + interval
        return StellarIntervalReport(fabric_report=fabric_report, deployments=deployments)

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def _record_telemetry(
        self, report: FabricIntervalReport, interval: float, time: float
    ) -> None:
        # The QoS policies attribute matched/dropped/shaped bits per rule id
        # while classifying, so telemetry folds those stats in directly
        # instead of re-classifying every dropped/shaped flow.
        for member_asn, rule_stats in report.rule_stats_by_member.items():
            shaper_drops = report.shaped_dropped_by_member.get(member_asn, {})
            for rule_id, stats in rule_stats.items():
                self.telemetry.record_rule_interval(
                    rule_id=rule_id,
                    member_asn=member_asn,
                    matched_bits=stats["matched"],
                    dropped_bits=stats["dropped"],
                    shaped_passed_bits=stats["shaped"],
                    interval=interval,
                    time=time,
                    shaped_dropped_bits=shaper_drops.get(rule_id, 0.0),
                )

    def telemetry_report(self, member_asn: int) -> MemberTelemetryReport:
        """The member-facing telemetry report at the current time."""
        return self.telemetry.report_for_member(member_asn, time=self._now)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def active_rules(self) -> list[BlackholingRule]:
        return self.controller.active_rules()

    def installed_rule_count(self) -> int:
        """Rules actually installed on the data plane across all routers."""
        return sum(len(router.installed_rules()) for router in self.fabric.edge_routers())
