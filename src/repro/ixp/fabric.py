"""The IXP switching fabric.

The fabric ties everything together on the data plane: members connect to
edge routers (grouped into PoPs), traffic entering through one member's
port crosses the platform and leaves through the destination member's
egress port, where the QoS policy (and thus any Stellar blackholing rule)
is applied.  The fabric also tracks platform-level utilisation, because
the paper's egress-filtering choice is only viable while the platform has
spare capacity to carry attack traffic to the egress port (§4.5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..traffic.flowtable import FlowTable
from ..traffic.ipfix import IpfixCollector, IpfixExporter
from .delivery import FabricDeliveryPlan
from .edge_router import EdgeRouter, PortNotFoundError
from .member import IxpMember
from .port import MemberPort
from .qos import PortQosResult


@dataclass
class FabricIntervalReport:
    """Platform-level outcome of one delivery interval."""

    interval_start: float
    interval: float
    offered_bits: float = 0.0
    delivered_bits: float = 0.0
    filtered_bits: float = 0.0
    congestion_dropped_bits: float = 0.0
    results_by_member: dict[int, PortQosResult] = field(default_factory=dict)

    @property
    def platform_load_bps(self) -> float:
        """Traffic carried across the platform during the interval (bps)."""
        if self.interval <= 0:
            return 0.0
        return self.offered_bits / self.interval

    def to_dict(self) -> dict:
        """Canonical JSON-serializable view of the interval outcome.

        Every number delivery *computes* is included — platform totals
        plus each member's bit accounting and per-rule stats — so equality
        of two reports' ``to_dict()`` is the parity contract between the
        fabric and the naive reference in ``tests/oracle`` (the fuzz suite
        asserts it for arbitrary generated topologies and rule sets).
        """
        return {
            "interval_start": self.interval_start,
            "interval": self.interval,
            "offered_bits": self.offered_bits,
            "delivered_bits": self.delivered_bits,
            "filtered_bits": self.filtered_bits,
            "congestion_dropped_bits": self.congestion_dropped_bits,
            "members": {
                str(asn): {
                    "forwarded_bits": result.forwarded_bits,
                    "dropped_bits": result.dropped_bits,
                    "shaped_passed_bits": result.shaped_passed_bits,
                    "shaped_dropped_bits": result.shaped_dropped_bits,
                    "congestion_dropped_bits": result.congestion_dropped_bits,
                    "rule_stats": {
                        rule_id: dict(stats)
                        for rule_id, stats in sorted(result.rule_stats.items())
                    },
                }
                for asn, result in sorted(self.results_by_member.items())
            },
        }

    def to_columns(self) -> dict:
        """Columnar view of the interval outcome, for the shard merge.

        Same numbers as :meth:`to_dict`, but per-member accounting is laid
        out as parallel numpy arrays in ascending-ASN order, so
        :func:`~repro.ixp.shard.merge_interval_columns` reduces shards with
        array concatenation + one argsort instead of per-member dict
        copies.  Sparse ``rule_stats`` stay a nested dict (only members
        with claimed rules carry entries).
        :func:`~repro.ixp.shard.columns_to_report_dict` converts back to
        the :meth:`to_dict` shape bit-for-bit (float64 round-trips
        exactly).
        """
        ordered = sorted(self.results_by_member.items())
        return {
            "interval_start": self.interval_start,
            "interval": self.interval,
            "totals": {
                "offered_bits": self.offered_bits,
                "delivered_bits": self.delivered_bits,
                "filtered_bits": self.filtered_bits,
                "congestion_dropped_bits": self.congestion_dropped_bits,
            },
            "member_asns": np.fromiter(
                (asn for asn, _ in ordered), dtype=np.int64, count=len(ordered)
            ),
            "member_fields": {
                name: np.fromiter(
                    (getattr(result, name) for _, result in ordered),
                    dtype=np.float64,
                    count=len(ordered),
                )
                for name in MEMBER_REPORT_FIELDS
            },
            "rule_stats": {
                str(asn): {
                    rule_id: dict(stats)
                    for rule_id, stats in sorted(result.rule_stats.items())
                }
                for asn, result in ordered
                if result.rule_stats
            },
        }


#: Per-member bit-accounting fields carried by the columnar report view,
#: in the order :meth:`FabricIntervalReport.to_dict` lists them.
MEMBER_REPORT_FIELDS = (
    "forwarded_bits",
    "dropped_bits",
    "shaped_passed_bits",
    "shaped_dropped_bits",
    "congestion_dropped_bits",
)


class SwitchingFabric:
    """The IXP's layer-2 switching platform.

    An interval's columnar traffic crosses the platform through a cached
    :class:`~repro.ixp.delivery.FabricDeliveryPlan`: one platform-level
    group-by + classification pass per interval.
    """

    def __init__(
        self,
        name: str = "l-ixp",
        platform_capacity_bps: float = 25e12,
        ipfix_sampling_rate: int = 1,
        collect_ipfix: bool = True,
        retain_reports: bool = True,
        retain_history: bool = True,
    ) -> None:
        if not (math.isfinite(platform_capacity_bps) and platform_capacity_bps > 0):
            raise ValueError("platform capacity must be positive and finite")
        self.name = name
        #: Connected member capacity of the platform (25 Tbps at DE-CIX
        #: Frankfurt in 2017, paper footnote 1).
        self.platform_capacity_bps = platform_capacity_bps
        #: Streaming knobs: an hour-long city-scale run delivers thousands
        #: of intervals through one fabric, so accumulating every IPFIX
        #: export, interval report and per-port result history would hold
        #: the whole trace in memory.  Disabling retention changes no
        #: delivered/filtered accounting — reports are still returned to
        #: the caller, just not stored on the fabric.
        self.collect_ipfix = collect_ipfix
        self.retain_reports = retain_reports
        self.retain_history = retain_history
        self._edge_routers: dict[str, EdgeRouter] = {}
        self._members: dict[int, IxpMember] = {}
        self._router_for_member: dict[int, str] = {}
        self.collector = IpfixCollector()
        self._exporter = IpfixExporter(
            exporter_id=f"{name}-fabric", sampling_rate=ipfix_sampling_rate
        )
        self.reports: list[FabricIntervalReport] = []
        self._plan_cache: Optional[FabricDeliveryPlan] = None

    # ------------------------------------------------------------------
    # Topology construction
    # ------------------------------------------------------------------
    def add_edge_router(self, router: EdgeRouter) -> EdgeRouter:
        if router.name in self._edge_routers:
            raise ValueError(f"edge router {router.name!r} already exists")
        self._edge_routers[router.name] = router
        return router

    def connect_member(self, member: IxpMember, router_name: Optional[str] = None) -> MemberPort:
        """Connect a member to an edge router (the first one by default)."""
        if not self._edge_routers:
            raise RuntimeError("add an edge router before connecting members")
        if router_name is None:
            # Prefer the router in the member's PoP, else the least loaded one.
            candidates = [
                router for router in self._edge_routers.values() if router.pop == member.pop
            ] or list(self._edge_routers.values())
            router = min(candidates, key=lambda r: len(r.member_asns))
        else:
            router = self._edge_routers[router_name]
        port = router.connect_member(member)
        port.retain_history = self.retain_history
        self._members[member.asn] = member
        self._router_for_member[member.asn] = router.name
        return port

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def members(self) -> list[IxpMember]:
        return list(self._members.values())

    @property
    def member_asns(self) -> set[int]:
        return set(self._members)

    def member(self, asn: int) -> IxpMember:
        try:
            return self._members[asn]
        except KeyError as exc:
            raise KeyError(f"AS{asn} is not a member of {self.name}") from exc

    def edge_routers(self) -> list[EdgeRouter]:
        return list(self._edge_routers.values())

    def router_for_member(self, member_asn: int) -> EdgeRouter:
        try:
            return self._edge_routers[self._router_for_member[member_asn]]
        except KeyError as exc:
            raise PortNotFoundError(f"AS{member_asn} is not connected") from exc

    def port_for_member(self, member_asn: int) -> MemberPort:
        return self.router_for_member(member_asn).port_for(member_asn)

    @property
    def connected_capacity_bps(self) -> float:
        """Sum of member port capacities (the "connected capacity")."""
        return sum(member.port_capacity_bps for member in self._members.values())

    def rules_version_total(self) -> int:
        """Sum of every connected port's ``rules_version``.

        Each bump is one rule-set mutation — and thus one compiled
        match-index (and delivery-plan slice) recompile the next interval
        pays for.  The control-plane service's coalescing exists to keep
        this total low under churn; the ``rule_churn`` scenario and the
        service bench report it as the recompile-amortization metric.
        """
        return sum(
            port.qos.rules_version
            for router in self._edge_routers.values()
            for port in router.ports()
        )

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def current_delivery_plan(self) -> FabricDeliveryPlan:
        """The cached delivery plan, recompiled only when stale.

        Plans snapshot every port's rule-set version
        (:attr:`~repro.ixp.qos.PortQosPolicy.rules_version`); installs,
        removals and membership changes invalidate the cache, so a
        mid-run configuration change is picked up on the next interval
        while steady-state intervals skip the recompile entirely — and
        the per-port compiled match indexes are cached on the policies
        themselves, so even a recompile only rebuilds touched ports'
        indexes.

        A stale cached plan is *patched*, not rebuilt: the replacement
        plan adopts the previous plan's compiled segment for every port
        whose rule-set version is unchanged, so a single-port install
        re-derives only that port's slice of the platform rule set.
        """
        plan = self._plan_cache
        if plan is None or not plan.is_current():
            plan = FabricDeliveryPlan(self, previous=plan)
            self._plan_cache = plan
        return plan

    def deliver(
        self, flows: FlowTable, interval: float, interval_start: float = 0.0
    ) -> FabricIntervalReport:
        """Carry one observation interval of traffic across the platform.

        Flows are grouped by their egress member, pushed through that
        member's port QoS policy by the current delivery plan, and the
        per-member results plus a platform-level summary are returned.
        Flows whose egress member is unknown are ignored (they never
        entered the IXP) — including by the IPFIX export, which only sees
        traffic the platform actually carried.  Record lists go through
        :meth:`FlowTable.from_records
        <repro.traffic.flowtable.FlowTable.from_records>` first.
        """
        if not isinstance(flows, FlowTable):
            raise TypeError(
                f"deliver takes a FlowTable, got {type(flows).__name__}; "
                "convert records with FlowTable.from_records"
            )
        report = self.current_delivery_plan().execute(flows, interval, interval_start)
        if self.collect_ipfix:
            self.collector.receive(
                self._exporter.export(self._known_egress(flows), export_time=interval_start)
            )
        if self.retain_reports:
            self.reports.append(report)
        return report

    def _known_egress(self, flows: FlowTable) -> FlowTable:
        """The rows whose egress member is connected (= traffic the IXP saw)."""
        if not len(flows):
            return flows
        if not self._members:
            return flows.select(np.zeros(len(flows), dtype=bool))
        member_asns = np.fromiter(
            self._members, dtype=np.int64, count=len(self._members)
        )
        known = np.isin(flows.egress_asn, member_asns)
        return flows if bool(known.all()) else flows.select(known)

    def platform_overloaded(self, report: FabricIntervalReport) -> bool:
        """True if the interval's load exceeded the platform capacity."""
        return report.platform_load_bps > self.platform_capacity_bps
