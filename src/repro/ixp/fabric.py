"""The IXP switching fabric.

The fabric ties everything together on the data plane: members connect to
edge routers (grouped into PoPs), traffic entering through one member's
port crosses the platform and leaves through the destination member's
egress port, where the QoS policy (and thus any Stellar blackholing rule)
is applied.  The fabric also tracks platform-level utilisation, because
the paper's egress-filtering choice is only viable while the platform has
spare capacity to carry attack traffic to the egress port (§4.5).

Membership is held as columns: :meth:`SwitchingFabric.connect_population`
places a whole :class:`~repro.ixp.member.MemberPopulation` on the routers
with array operations, and a member's :class:`~repro.ixp.member.IxpMember`
and :class:`~repro.ixp.port.MemberPort` are built only when looked up.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..traffic.flowtable import FlowTable
from ..traffic.ipfix import IpfixCollector, IpfixExporter
from .delivery import FabricDeliveryPlan
from .edge_router import EdgeRouter, PortNotFoundError
from .member import IxpMember, MemberPopulation
from .port import MemberPort, PortCounterStore
from .qos import PortQosResult, RuleEpoch
from .shard import columns_to_report_dict

#: Per-member bit-accounting fields carried by the columnar report view,
#: in the order :meth:`FabricIntervalReport.to_dict` lists them.
MEMBER_REPORT_FIELDS = (
    "forwarded_bits",
    "dropped_bits",
    "shaped_passed_bits",
    "shaped_dropped_bits",
    "congestion_dropped_bits",
)


def _fill(loads: np.ndarray, count: int) -> np.ndarray:
    """Positions picked by ``count`` successive least-loaded picks.

    Each pick takes the lowest ``loads`` entry (ties to the lowest
    position) and raises it by one.  Position ``p`` offers a free slot at
    every level from ``loads[p]`` up, and the picks take the slots in
    ascending ``(level, position)`` order; no pick reaches the level
    where filling every position up to it would already give ``count``
    slots, nor ``min(loads) + count``.
    """
    top = min(
        int(loads.min()) + count,
        -(-(int(loads.sum()) + count) // len(loads)),
    )
    free = np.maximum(top - loads, 0)
    positions = np.repeat(np.arange(len(loads)), free)
    levels = np.arange(len(positions)) - np.repeat(np.cumsum(free) - free, free)
    levels += np.repeat(loads, free)
    return positions[np.lexsort((positions, levels))[:count]]


def _no_member_fields() -> dict[str, np.ndarray]:
    return {name: np.zeros(0) for name in MEMBER_REPORT_FIELDS}


@dataclass
class FabricIntervalReport:
    """Platform-level outcome of one delivery interval.

    Per-member accounting is held once, as the arrays the delivery pass
    computed: :attr:`member_asns`, :attr:`member_fields` and
    :attr:`capacity_bits` are parallel arrays in ascending-ASN order, for
    scans over every port, and :attr:`rule_stats_by_member` holds the
    sparse per-rule stats.  :attr:`results_by_member` is a read-only
    mapping over those columns that builds one port's
    :class:`~repro.ixp.qos.PortQosResult` (verdict tables, per-rule stats)
    when that port is looked up.
    """

    interval_start: float
    interval: float
    offered_bits: float = 0.0
    delivered_bits: float = 0.0
    filtered_bits: float = 0.0
    congestion_dropped_bits: float = 0.0
    #: A :class:`~repro.ixp.delivery.PortResults` view (an empty interval
    #: keeps the empty default).
    results_by_member: Mapping[int, PortQosResult] = field(default_factory=dict)
    #: ``rule_stats`` of every member where a rule claimed bits, in
    #: ascending-ASN order (each the same dict its result carries).
    rule_stats_by_member: dict[int, dict[str, dict[str, float]]] = field(
        default_factory=dict
    )
    #: Bits each SHAPE rule's shaper discarded, per member with a claimed
    #: SHAPE rule (``member -> rule id -> bits``).  Telemetry reads it;
    #: it is not part of :meth:`to_dict` or :meth:`to_columns`.
    shaped_dropped_by_member: dict[int, dict[str, float]] = field(
        default_factory=dict, repr=False, compare=False
    )
    #: Member ASNs (int64), ascending.
    member_asns: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64), repr=False, compare=False
    )
    #: Each of :data:`MEMBER_REPORT_FIELDS` as a float64 array aligned
    #: with :attr:`member_asns` (after the egress congestion cap).
    member_fields: dict[str, np.ndarray] = field(
        default_factory=_no_member_fields, repr=False, compare=False
    )
    #: Each member port's capacity over the interval, in bits (float64).
    capacity_bits: np.ndarray = field(
        default_factory=lambda: np.zeros(0), repr=False, compare=False
    )

    @property
    def platform_load_bps(self) -> float:
        """Traffic carried across the platform during the interval (bps)."""
        if self.interval <= 0:
            return 0.0
        return self.offered_bits / self.interval

    def port_utilisation(self) -> np.ndarray:
        """Every member port's egress demand over its capacity, as an array.

        Aligned with :attr:`member_asns`: delivered plus congestion-dropped
        bits over capacity times interval, so an oversubscribed port
        reports its true ratio (e.g. 8.0 for an 80 Mbit demand on a
        10 Mbit interval budget) instead of clamping to 1.0.
        """
        fields = self.member_fields
        delivered = fields["forwarded_bits"] + fields["shaped_passed_bits"]
        return (delivered + fields["congestion_dropped_bits"]) / self.capacity_bits

    def to_dict(self) -> dict:
        """Canonical JSON-serializable view of the interval outcome.

        Every number delivery *computes* is included — platform totals
        plus each member's bit accounting and per-rule stats — so equality
        of two reports' ``to_dict()`` is the parity contract between the
        fabric and the naive reference in ``tests/oracle`` (the fuzz suite
        asserts it for arbitrary generated topologies and rule sets).
        """
        return columns_to_report_dict(self.to_columns())

    def to_columns(self) -> dict:
        """Columnar view of the interval outcome, for the shard merge.

        Same numbers as :meth:`to_dict`, with per-member accounting as the
        report's parallel numpy arrays in ascending-ASN order, so
        :func:`~repro.ixp.shard.merge_interval_columns` reduces shards with
        array concatenation + one argsort instead of per-member dict
        copies.  Sparse ``rule_stats`` stay a nested dict (only members
        with claimed rules carry entries).
        :func:`~repro.ixp.shard.columns_to_report_dict` converts back to
        the :meth:`to_dict` shape bit-for-bit (float64 round-trips
        exactly).
        """
        return {
            "interval_start": self.interval_start,
            "interval": self.interval,
            "totals": {
                "offered_bits": self.offered_bits,
                "delivered_bits": self.delivered_bits,
                "filtered_bits": self.filtered_bits,
                "congestion_dropped_bits": self.congestion_dropped_bits,
            },
            "member_asns": self.member_asns,
            "member_fields": dict(self.member_fields),
            "rule_stats": {
                str(asn): {
                    rule_id: dict(stats) for rule_id, stats in sorted(rule_stats.items())
                }
                for asn, rule_stats in self.rule_stats_by_member.items()
            },
        }


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
    ) -> None:
        if not (math.isfinite(platform_capacity_bps) and platform_capacity_bps > 0):
            raise ValueError("platform capacity must be positive and finite")
        self.name = name
        #: Connected member capacity of the platform (25 Tbps at DE-CIX
        #: Frankfurt in 2017, paper footnote 1).
        self.platform_capacity_bps = platform_capacity_bps
        #: Streaming knobs: an hour-long city-scale run delivers thousands
        #: of intervals through one fabric, so accumulating every IPFIX
        #: export and interval report would hold the whole trace in
        #: memory.  Disabling retention changes no delivered/filtered
        #: accounting — reports are still returned to the caller, just not
        #: stored on the fabric.
        self.collect_ipfix = collect_ipfix
        self.retain_reports = retain_reports
        self._edge_routers: dict[str, EdgeRouter] = {}
        #: The routers in the order they were added (a member's router
        #: column indexes it).
        self._routers: list[EdgeRouter] = []
        #: Connected members as columns, one row each in connect order:
        #: ASN, port capacity (bps) and router (index into the router
        #: list).  A member's row is also its counter slot.
        self._asns = np.zeros(0, dtype=np.int64)
        self._capacities = np.zeros(0)
        self._router_index = np.zeros(0, dtype=np.intp)
        #: Each member's row.
        self._row_of: dict[int, int] = {}
        #: ``(first row, population)`` of every connected block, in row
        #: order: where a member's object is built from.
        self._blocks: list[tuple[int, MemberPopulation]] = []
        #: Member objects built (or given) so far, by ASN.
        self._member_objects: dict[int, IxpMember] = {}
        #: The member columns in ascending-ASN order (see :meth:`member_columns`).
        self._sorted_columns: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        #: Bumped by every connect that adds members; delivery plans
        #: compare it instead of the member set.
        self._membership_version = 0
        #: Shared with every connected port's policy; see :attr:`rule_epoch`.
        self._rule_epoch = RuleEpoch()
        #: Cumulative counters of every connected port, one row each.
        self.port_counters = PortCounterStore()
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
        self._routers.append(router)
        return router

    def connect_member(self, member: IxpMember) -> MemberPort:
        """Connect one member and return its port.

        The one-row case of :meth:`connect_population`.  A member already
        connected keeps its port: it is returned as is, and nothing is
        bumped.
        """
        if member.asn not in self._row_of:
            self.connect_population(MemberPopulation.from_members([member]))
        return self.port_for_member(member.asn)

    def connect_population(self, population: MemberPopulation) -> None:
        """Connect every member of ``population``, in row order.

        Each member goes to the least-loaded router of its PoP (ties to
        the router added first), or of the whole fabric when its PoP has
        no router — exactly where connecting the rows one at a time would
        put it.
        Counter slots are reserved as one block, the membership version
        is bumped once, and no port is built.  Raises ``ValueError`` when
        an ASN repeats or is already connected, and ``RuntimeError`` when
        a router runs out of ports (nothing is connected then).
        """
        if not self._edge_routers:
            raise RuntimeError("add an edge router before connecting members")
        count = len(population)
        if count == 0:
            return
        asns = population.asns
        asn_list = asns.tolist()
        if len(set(asn_list)) != count:
            raise ValueError("population repeats a member ASN")
        if not self._row_of.keys().isdisjoint(asn_list):
            connected = next(asn for asn in asn_list if asn in self._row_of)
            raise ValueError(f"AS{connected} is already connected to {self.name}")
        routers = self._routers
        placement = self._place(population, routers)
        added = np.bincount(placement, minlength=len(routers))
        for router, extra in zip(routers, added.tolist()):
            if router.member_count + extra > router.profile.port_count:
                raise RuntimeError(
                    f"edge router {router.name} has no free ports "
                    f"(capacity {router.profile.port_count})"
                )
        # The counter store grows with the rows: row == slot.
        first_row = self.port_counters.add_slots(count)
        by_router = np.argsort(placement, kind="stable")
        bounds = np.concatenate(([0], np.cumsum(added)))
        for position in np.flatnonzero(added).tolist():
            rows = by_router[bounds[position]:bounds[position + 1]]
            routers[position].attach_members(asns[rows].tolist(), self._build_port)
        self._asns = np.concatenate((self._asns, asns))
        self._capacities = np.concatenate((self._capacities, population.port_capacity_bps))
        self._router_index = np.concatenate((self._router_index, placement))
        self._row_of.update(zip(asn_list, range(first_row, first_row + count)))
        self._blocks.append((first_row, population))
        self._member_objects.update(population.objects)
        self._sorted_columns = None
        self._membership_version += 1

    @staticmethod
    def _place(population: MemberPopulation, routers: list[EdgeRouter]) -> np.ndarray:
        """Each member's router (index into ``routers``), in row order.

        Picking the least-loaded candidate one member at a time hands a
        PoP's members to its routers in ascending ``(load, router order)``
        order of the free slots, so a PoP's whole run of members is placed
        with one sort.  A member whose PoP has no router competes for every
        router; the rows between two such members are placed per PoP.
        """
        loads = np.array([router.member_count for router in routers], dtype=np.int64)
        by_pop: dict[str, list[int]] = {}
        for position, router in enumerate(routers):
            by_pop.setdefault(router.pop, []).append(position)
        pops, codes = np.unique(population.pops, return_inverse=True)
        candidates = [
            np.asarray(by_pop.get(f"pop-{pop}", []), dtype=np.intp) for pop in pops.tolist()
        ]
        homeless = np.flatnonzero(
            np.isin(codes, [code for code, found in enumerate(candidates) if not len(found)])
        )
        placement = np.empty(len(population), dtype=np.intp)
        start = 0
        for stop in [*homeless.tolist(), len(population)]:
            segment = codes[start:stop]
            for code in np.unique(segment).tolist():
                rows = start + np.flatnonzero(segment == code)
                chosen = candidates[code][_fill(loads[candidates[code]], len(rows))]
                placement[rows] = chosen
                np.add.at(loads, chosen, 1)
            if stop < len(population):
                placement[stop] = int(np.argmin(loads))
                loads[placement[stop]] += 1
            start = stop + 1
        return placement

    def _build_port(self, asn: int, port_id: int) -> MemberPort:
        """The port of a connected member, on its first lookup."""
        port = MemberPort(self.member(asn), port_id)
        port.bind_counters(self.port_counters, self._row_of[asn])
        port.qos.epoch = self._rule_epoch
        return port

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    @property
    def member_asns(self) -> set[int]:
        return set(self._row_of)

    def member_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(asns, capacities, counter slots)`` of every member, ascending by ASN.

        Computed once per membership version; the arrays are shared, so
        callers must not write to them.
        """
        if self._sorted_columns is None:
            order = np.argsort(self._asns, kind="stable")
            self._sorted_columns = (self._asns[order], self._capacities[order], order)
        return self._sorted_columns

    def built_ports(self) -> dict[int, MemberPort]:
        """The connected members' ports built so far, by ASN."""
        return {
            port.asn: port
            for router in self._routers
            for port in router.built_ports()
            if port.asn in self._row_of
        }

    @property
    def membership_version(self) -> int:
        """Monotonic counter bumped by every connect that adds members."""
        return self._membership_version

    @property
    def rule_epoch(self) -> int:
        """Monotonic counter bumped by every rule-set mutation of a
        connected port (each ``rules_version`` bump), so one compare tells
        whether any port's rules changed."""
        return self._rule_epoch.value

    def member(self, asn: int) -> IxpMember:
        """The connected member ``asn`` (built on its first lookup)."""
        member = self._member_objects.get(asn)
        if member is not None:
            return member
        row = self._row_of.get(asn)
        if row is None:
            raise KeyError(f"AS{asn} is not a member of {self.name}")
        first, population = self._blocks[
            bisect_right(self._blocks, row, key=lambda block: block[0]) - 1
        ]
        member = self._member_objects[asn] = population.member(row - first)
        return member

    def edge_routers(self) -> list[EdgeRouter]:
        return list(self._routers)

    def router_for_member(self, member_asn: int) -> EdgeRouter:
        row = self._row_of.get(member_asn)
        if row is None:
            raise PortNotFoundError(f"AS{member_asn} is not connected")
        return self._routers[self._router_index[row]]

    def port_for_member(self, member_asn: int) -> MemberPort:
        return self.router_for_member(member_asn).port_for(member_asn)

    @property
    def connected_capacity_bps(self) -> float:
        """Sum of member port capacities (the "connected capacity").

        Summed in connect order, one float add per member.
        """
        return float(sum(self._capacities.tolist()))

    def rules_version_total(self) -> int:
        """Sum of every connected port's ``rules_version``.

        Each bump is one rule-set mutation — and thus one compiled
        match-index (and delivery-plan slice) recompile the next interval
        pays for.  The control-plane service's coalescing exists to keep
        this total low under churn; the ``rule_churn`` scenario and the
        service bench report it as the recompile-amortization metric.
        """
        return sum(port.qos.rules_version for port in self.built_ports().values())

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def current_delivery_plan(self) -> FabricDeliveryPlan:
        """The cached delivery plan, recompiled only when stale.

        Plans snapshot the fabric's :attr:`membership_version` and
        :attr:`rule_epoch`; membership changes bump the first, installs
        and removals the second, and either invalidates the cache, so a
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
        traffic the platform actually carried.
        """
        if not isinstance(flows, FlowTable):
            raise TypeError(f"deliver takes a FlowTable, got {type(flows).__name__}")
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
        known = np.isin(flows.egress_asn, self.member_columns()[0])
        return flows if bool(known.all()) else flows.select(known)
