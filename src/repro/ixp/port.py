"""Member ports on the IXP edge routers.

A :class:`MemberPort` binds an IXP member to a physical port on an edge
router.  The port owns its QoS policy (Stellar configures egress ports,
§4.5), accumulates traffic counters, and exposes the telemetry the
blackholing users receive (forwarded vs. dropped vs. shaped volumes).
"""

from __future__ import annotations

from dataclasses import dataclass

from .member import IxpMember
from .qos import PortQosPolicy, PortQosResult, QosRule


@dataclass
class PortCounters:
    """Cumulative byte counters of a member port."""

    offered_bits: float = 0.0
    delivered_bits: float = 0.0
    dropped_bits: float = 0.0
    shaped_passed_bits: float = 0.0
    shaped_dropped_bits: float = 0.0
    congestion_dropped_bits: float = 0.0

    def update(self, offered_bits: float, result: PortQosResult) -> None:
        self.offered_bits += offered_bits
        self.delivered_bits += result.delivered_bits
        self.dropped_bits += result.dropped_bits
        self.shaped_passed_bits += result.shaped_passed_bits
        self.shaped_dropped_bits += result.shaped_dropped_bits
        self.congestion_dropped_bits += result.congestion_dropped_bits

    @property
    def total_filtered_bits(self) -> float:
        """Bits removed by blackholing rules (drop + shaped excess)."""
        return self.dropped_bits + self.shaped_dropped_bits


class MemberPort:
    """A member's port on an edge router, with its egress QoS policy."""

    def __init__(self, member: IxpMember, port_id: int) -> None:
        self.member = member
        self.port_id = port_id
        self.qos = PortQosPolicy(port_capacity_bps=member.port_capacity_bps)
        self.counters = PortCounters()
        #: Per-interval history of (interval_start, PortQosResult).
        self.history: list[tuple[float, PortQosResult]] = []
        #: Whether :attr:`history` accumulates.  Hour-long streaming runs
        #: disable it — each retained result closes over its interval's
        #: flow tables, which would hold the whole trace in RAM.  The
        #: cumulative :attr:`counters` always update.
        self.retain_history: bool = True

    # ------------------------------------------------------------------
    @property
    def asn(self) -> int:
        return self.member.asn

    @property
    def capacity_bps(self) -> float:
        return self.member.port_capacity_bps

    # ------------------------------------------------------------------
    # QoS rule management (delegated to the policy)
    # ------------------------------------------------------------------
    def install_rule(self, rule: QosRule) -> None:
        self.qos.install(rule)

    def remove_rule(self, rule_id: str) -> bool:
        return self.qos.remove(rule_id)

    def rules(self) -> list[QosRule]:
        return self.qos.rules()

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def utilisation(self, result: PortQosResult, interval: float) -> float:
        """Egress demand on the port relative to its capacity (can exceed 1).

        The demand is what the QoS policy tried to deliver — the bits that
        made it plus the bits congestion-dropped at the egress queue — so
        an oversubscribed port reports its true ratio (e.g. 8.0 for an 80
        Mbit demand on a 10 Mbit interval budget) instead of silently
        clamping to 1.0.  Presentation layers that want a bounded gauge
        should use :meth:`display_utilisation`.
        """
        if interval <= 0:
            raise ValueError("interval must be positive")
        demand_bits = result.delivered_bits + result.congestion_dropped_bits
        return demand_bits / (self.capacity_bps * interval)

    def display_utilisation(self, result: PortQosResult, interval: float) -> float:
        """:meth:`utilisation` clamped to [0, 1] for bounded gauges."""
        return min(1.0, self.utilisation(result, interval))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MemberPort(port_id={self.port_id}, member=AS{self.member.asn})"
