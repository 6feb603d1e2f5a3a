"""Batched fabric delivery: reference parity, lazy results, IPFIX export.

The delivery plan must be indistinguishable from the naive reference in
``tests/oracle`` — same flow verdicts, same bit accounting, same
counters — on multi-router, multi-PoP topologies with
drop/shape/forward rules and stateful shapers across intervals.  These
tests pin that, plus the export regression: flows whose egress member is
unknown never entered the IXP and must not be exported to the collector.
"""

import json

import numpy as np
import pytest

from fuzz.strategies import single_port_fabric
from oracle.records import FiveTuple, FlowRecord, from_records, to_records
from oracle.reference import ReferenceFabric, column_rule_stats
from repro.bgp import Prefix
from repro.ixp import (
    EdgeRouter,
    FabricDeliveryPlan,
    FilterAction,
    FlowMatch,
    IxpMember,
    PortQosPolicy,
    QosRule,
    SwitchingFabric,
    build_multi_pop_fabric,
    make_member_population,
    small_ixp_edge_router_profile,
)
from repro.traffic import (
    BenignTrafficSource,
    BooterAttack,
    FlowTable,
    IpfixCollector,
    IpProtocol,
)

VICTIM_ASN = 64500
VICTIM_IP = "100.10.10.10"
PEER_ASNS = [65000 + i for i in range(24)]


def build_fabric(with_rules: bool = True) -> SwitchingFabric:
    """Two PoPs x two edge routers, 25 members, rules on two ports."""
    fabric = SwitchingFabric(name="test-ixp", platform_capacity_bps=1e12)
    for pop in (1, 2):
        for index in (1, 2):
            fabric.add_edge_router(
                EdgeRouter(
                    f"edge-{pop}-{index}",
                    profile=small_ixp_edge_router_profile(),
                    pop=f"pop-{pop}",
                )
            )
    fabric.connect_member(
        IxpMember(asn=VICTIM_ASN, port_capacity_bps=2e8, pop="pop-1")
    )
    for i, asn in enumerate(PEER_ASNS):
        fabric.connect_member(IxpMember(asn=asn, pop=f"pop-{1 + i % 2}"))
    if not with_rules:
        return fabric
    victim_router = fabric.router_for_member(VICTIM_ASN)
    victim_router.install_rule(
        VICTIM_ASN,
        QosRule(
            match=FlowMatch(
                dst_prefix=Prefix.parse(f"{VICTIM_IP}/32"), src_port=123
            ),
            action=FilterAction.DROP,
            rule_id="drop-ntp",
        ),
    )
    victim_router.install_rule(
        VICTIM_ASN,
        QosRule(
            match=FlowMatch(dst_prefix=Prefix.parse(f"{VICTIM_IP}/32"), src_port=53),
            action=FilterAction.SHAPE,
            shape_rate_bps=1e6,
            rule_id="shape-dns",
        ),
    )
    victim_router.install_rule(
        VICTIM_ASN,
        QosRule(
            match=FlowMatch(dst_prefix=Prefix.parse("100.10.10.0/24")),
            action=FilterAction.FORWARD,
            rule_id="allow-prefix",
        ),
    )
    # A second filtered port on another router/PoP.
    other_router = fabric.router_for_member(65001)
    other_router.install_rule(
        65001,
        QosRule(
            match=FlowMatch(src_port=11211),
            action=FilterAction.DROP,
            rule_id="drop-memcached",
        ),
    )
    return fabric


def interval_table(seed: int = 3, with_unknown: bool = True) -> FlowTable:
    """Attack + benign + cross-member traffic, optionally with unknown egress."""
    attack = BooterAttack(
        victim_ip=VICTIM_IP,
        victim_member_asn=VICTIM_ASN,
        peer_member_asns=PEER_ASNS,
        peak_rate_bps=1e9,
        start=0.0,
        duration=100.0,
        seed=seed,
    )
    benign = BenignTrafficSource(
        dst_ip=VICTIM_IP,
        egress_member_asn=VICTIM_ASN,
        ingress_member_asns=PEER_ASNS[:5],
        rate_bps=5e7,
        seed=seed + 1,
    )
    rng = np.random.default_rng(seed + 2)
    n = 4000
    egress_pool = PEER_ASNS + ([9999, 8888] if with_unknown else [])
    cross = FlowTable(
        src_ip=rng.integers(0, 2**32, n, dtype=np.uint32),
        dst_ip=rng.integers(0, 2**32, n, dtype=np.uint32),
        protocol=np.full(n, int(IpProtocol.UDP)),
        src_port=rng.choice([123, 53, 11211, 443], n),
        dst_port=rng.integers(1024, 60000, n),
        start=np.zeros(n),
        duration=np.full(n, 10.0),
        bytes=rng.integers(100, 10_000, n),
        packets=np.ones(n, dtype=np.int64),
        ingress_asn=rng.choice(PEER_ASNS, n),
        egress_asn=rng.choice(egress_pool, n),
        is_attack=np.zeros(n, dtype=bool),
    )
    return FlowTable.concat(
        [attack.flow_table(10.0, 10.0), benign.flow_table(10.0, 10.0), cross]
    )


def victim_port_fabric(rules) -> SwitchingFabric:
    """A one-port fabric: the victim alone, with ``rules`` on its port."""
    fabric, port = single_port_fabric(asn=VICTIM_ASN)
    for rule in rules:
        port.qos.install(rule)
    return fabric


def victim_flows(src_ports_and_bytes) -> FlowTable:
    """One victim-bound flow per ``(src_port, bytes)``, in the given row order."""
    return from_records(
        FlowRecord(
            key=FiveTuple(f"23.1.1.{row + 1}", VICTIM_IP, IpProtocol.UDP, src_port, 40000),
            start=0.0,
            duration=10.0,
            bytes=bytes_,
            packets=max(1, bytes_ // 500),
            ingress_member_asn=PEER_ASNS[0],
            egress_member_asn=VICTIM_ASN,
            is_attack=True,
        )
        for row, (src_port, bytes_) in enumerate(src_ports_and_bytes)
    )


def record_multiset(records):
    """Row multiset of a record list (order-insensitive verdict comparison)."""
    return sorted(
        (r.key.src_ip, r.key.dst_ip, r.src_port, r.dst_port, r.bytes, r.ingress_member_asn,
         r.egress_member_asn)
        for r in records
    )


def assert_matches_reference(fabric, oracle, table, interval_start=0.0):
    """One interval through the fabric equals the reference, flow for flow."""
    report = fabric.deliver(table, 10.0, interval_start)
    reference = oracle.deliver(table, 10.0, interval_start)
    assert report.to_dict() == reference
    # Digests hash the JSON text, where 0 and 0.0 differ.
    assert json.dumps(report.to_dict(), sort_keys=True) == json.dumps(reference, sort_keys=True)
    for asn, result in report.results_by_member.items():
        for name, expected in zip(("forwarded", "dropped", "shaped"), oracle.verdicts[asn]):
            produced = to_records(getattr(result, f"{name}_table"))
            assert record_multiset(produced) == record_multiset(expected), (
                asn, name,
            )
        assert vars(fabric.port_for_member(asn).counters) == oracle.counters[asn], asn
    return report


class TestEngineParity:
    def test_single_interval_parity_multi_router(self):
        fabric = build_fabric()
        assert_matches_reference(fabric, ReferenceFabric(fabric), interval_table())

    def test_multi_interval_parity_keeps_shaper_state(self):
        # The shape-dns rule's RateLimiter is stateful; the plan must drain
        # the same token stream across consecutive intervals.
        fabric = build_fabric()
        oracle = ReferenceFabric(fabric)
        for step, seed in enumerate((3, 4, 5)):
            assert_matches_reference(fabric, oracle, interval_table(seed=seed), step * 10.0)

    def test_parity_without_any_rules(self):
        fabric = build_fabric(with_rules=False)
        assert_matches_reference(fabric, ReferenceFabric(fabric), interval_table())

    def test_empty_interval(self):
        fabric = build_fabric()
        report = fabric.deliver(FlowTable.empty(), 10.0)
        assert report.offered_bits == 0.0
        assert report.results_by_member == {}

    def test_default_engine_is_batched(self, monkeypatch):
        """The batched plan is the only engine: every delivery executes it."""
        executed = []
        execute = FabricDeliveryPlan.execute

        def spy(plan, *args):
            executed.append(plan)
            return execute(plan, *args)

        monkeypatch.setattr(FabricDeliveryPlan, "execute", spy)
        fabric = build_fabric()
        fabric.deliver(interval_table(), 10.0)
        assert executed == [fabric.current_delivery_plan()]

    def test_unknown_engine_rejected(self):
        """No engine option is left to select."""
        with pytest.raises(TypeError):
            SwitchingFabric(delivery_engine="batched")
        fabric = build_fabric()
        with pytest.raises(TypeError):
            fabric.deliver(FlowTable.empty(), 10.0, engine="batched")


class TestDeliveryPlan:
    def test_plan_compiles_ports_and_rules(self):
        plan = FabricDeliveryPlan(build_fabric())
        assert plan.port_count == 1 + len(PEER_ASNS)
        assert plan.rule_count == 4
        # The plan copies no rule: it keeps each filtered member's offset
        # into the platform order, members ascending by ASN.
        assert plan._member_start == {VICTIM_ASN: 0, 65001: 3}

    def test_plan_recompiled_per_interval_sees_new_rules(self):
        fabric = build_fabric(with_rules=False)
        table = interval_table(with_unknown=False)
        report = fabric.deliver(table, 10.0)
        assert report.results_by_member[VICTIM_ASN].dropped_bits == 0.0
        fabric.router_for_member(VICTIM_ASN).install_rule(
            VICTIM_ASN,
            QosRule(
                match=FlowMatch(src_port=123),
                action=FilterAction.DROP,
                rule_id="late-rule",
            ),
        )
        report = fabric.deliver(table, 10.0, 10.0)
        assert report.results_by_member[VICTIM_ASN].dropped_bits > 0.0

    def test_recompile_shifts_the_members_behind_a_touched_port(self):
        # An install on the lowest filtered ASN moves every later member's
        # rules one rank further on; the scatter must still read each
        # member's rules at its new offset.
        fabric = build_fabric()
        oracle = ReferenceFabric(fabric)
        assert_matches_reference(fabric, oracle, interval_table(with_unknown=False))
        before = fabric.current_delivery_plan()
        fabric.router_for_member(VICTIM_ASN).install_rule(
            VICTIM_ASN,
            QosRule(
                match=FlowMatch(dst_prefix=Prefix.parse(f"{VICTIM_IP}/32")),
                action=FilterAction.DROP,
                rule_id="late-host",
            ),
        )
        after = fabric.current_delivery_plan()
        assert after is not before
        assert after.rule_count == before.rule_count + 1
        assert after._member_start == {VICTIM_ASN: 0, 65001: 4}
        report = assert_matches_reference(
            fabric, oracle, interval_table(seed=2, with_unknown=False), 10.0
        )
        stats = column_rule_stats(report.rule_columns)
        assert "late-host" in stats[VICTIM_ASN]
        assert set(stats[65001]) == {"drop-memcached"}

    def test_passthrough_results_defer_tables(self):
        fabric = build_fabric()
        table = interval_table()
        report = fabric.deliver(table, 10.0)
        peer_result = report.results_by_member[65002]
        assert peer_result._table_source is not None
        forwarded = peer_result.forwarded_table
        assert peer_result._table_source is None
        assert len(forwarded) > 0
        assert set(np.unique(forwarded.egress_asn).tolist()) == {65002}

    def test_filtered_results_defer_tables(self, monkeypatch):
        # Two SHAPE rules whose rows interleave: the shaped table is built
        # only when read, rank by rank, ascending rows within each rank.
        fabric = victim_port_fabric(
            [
                QosRule(
                    match=FlowMatch(src_port=123),
                    action=FilterAction.SHAPE,
                    shape_rate_bps=2e3,
                    rule_id="shape-ntp",
                ),
                QosRule(
                    match=FlowMatch(
                        dst_prefix=Prefix.parse(f"{VICTIM_IP}/32"), src_port=53
                    ),
                    action=FilterAction.SHAPE,
                    shape_rate_bps=1e3,
                    rule_id="shape-dns",
                ),
                QosRule(match=FlowMatch(src_port=19), action=FilterAction.DROP),
            ]
        )
        table = victim_flows(
            [(123, 1500), (53, 2500), (19, 900), (123, 3300), (80, 700), (53, 4100)]
        )
        scaled_calls = []
        for name in ("scaled", "scaled_by"):
            original = getattr(FlowTable, name)

            def spy(self, factor, name=name, original=original):
                scaled_calls.append(name)
                return original(self, factor)

            monkeypatch.setattr(FlowTable, name, spy)
        result = fabric.deliver(table, 10.0).results_by_member[VICTIM_ASN]
        assert result._table_source is not None
        assert scaled_calls == []

        oracle = ReferenceFabric(fabric)
        oracle.deliver(table, 10.0)
        forwarded, dropped, shaped = oracle.verdicts[VICTIM_ASN]
        assert to_records(result.shaped_table) == shaped
        assert result._table_source is None
        assert scaled_calls == ["scaled_by"]
        # Rank order (the more specific DNS rule first), then row order.
        assert [record.src_port for record in to_records(result.shaped_table)] == [53, 53, 123, 123]
        assert [record.bytes for record in to_records(result.shaped_table)] == [
            record.bytes for record in shaped
        ]
        assert to_records(result.forwarded_table) == forwarded
        assert to_records(result.dropped_table) == dropped


def wide_fabric(member_count: int = 120) -> SwitchingFabric:
    """Two PoPs of two routers, ``member_count`` members, no rules."""
    fabric = build_multi_pop_fabric(pop_count=2, routers_per_pop=2)
    for member in make_member_population(member_count, pop_count=2, seed=5):
        fabric.connect_member(member)
    return fabric


def build_wide_table(fabric: SwitchingFabric, n: int = 2000) -> FlowTable:
    """Cross traffic to every member of ``fabric``."""
    rng = np.random.default_rng(11)
    asns = sorted(fabric.member_asns)
    return FlowTable(
        src_ip=rng.integers(0, 2**32, n, dtype=np.uint32),
        dst_ip=rng.integers(0, 2**32, n, dtype=np.uint32),
        protocol=np.full(n, int(IpProtocol.UDP)),
        src_port=rng.choice([19, 53, 123, 443], n),
        dst_port=rng.integers(1024, 60000, n),
        start=np.zeros(n),
        duration=np.full(n, 10.0),
        bytes=rng.integers(100, 10_000, n),
        packets=np.ones(n, dtype=np.int64),
        ingress_asn=rng.choice(asns, n),
        egress_asn=rng.choice(asns, n),
        is_attack=np.zeros(n, dtype=bool),
    )


def _late_rule(rule_id: str) -> QosRule:
    return QosRule(match=FlowMatch(src_port=19), action=FilterAction.DROP, rule_id=rule_id)


#: Every rule-set mutation of a port policy, each one version bump.
POLICY_MUTATIONS = {
    "install": lambda qos: qos.install(_late_rule("late")),
    "install_many": lambda qos: qos.install_many([_late_rule("a"), _late_rule("b")]),
    "remove": lambda qos: qos.remove("seed"),
    "clear": lambda qos: qos.clear(),
}


class TestPlanCurrency:
    """The cached plan is current exactly until some port's rules or the
    membership change, on any of a hundred-plus ports."""

    @pytest.mark.parametrize("position", [0, 61, -1])
    @pytest.mark.parametrize("mutation", sorted(POLICY_MUTATIONS))
    def test_rule_change_on_any_port_makes_plan_stale(self, mutation, position):
        fabric = wide_fabric()
        asn = sorted(fabric.member_asns)[position]
        qos = fabric.port_for_member(asn).qos
        qos.install(_late_rule("seed"))
        plan = fabric.current_delivery_plan()
        assert plan.is_current()
        version = qos.rules_version
        POLICY_MUTATIONS[mutation](qos)
        assert qos.rules_version == version + 1
        assert not plan.is_current()
        assert fabric.current_delivery_plan() is not plan

    def test_connect_member_makes_plan_stale(self):
        fabric = wide_fabric()
        plan = fabric.current_delivery_plan()
        port = fabric.connect_member(IxpMember(asn=4_200_000_000, pop="pop-2"))
        assert not plan.is_current()
        plan = fabric.current_delivery_plan()
        assert plan.port_count == len(fabric.member_asns)
        # The new port's rule changes reach the fabric's epoch too.
        port.qos.install(_late_rule("late"))
        assert not plan.is_current()

    def test_interval_without_change_keeps_cached_plan(self):
        fabric = wide_fabric()
        table = build_wide_table(fabric)
        fabric.deliver(table, 10.0)
        plan = fabric.current_delivery_plan()
        fabric.deliver(table, 10.0, 10.0)
        # A no-op removal bumps nothing either.
        assert not fabric.port_for_member(min(fabric.member_asns)).qos.remove("absent")
        fabric.deliver(table, 10.0, 20.0)
        assert fabric.current_delivery_plan() is plan

    def test_currency_check_reads_no_port_policy(self, monkeypatch):
        fabric = wide_fabric()
        plan = fabric.current_delivery_plan()

        def unread(policy):
            raise AssertionError("is_current read a port's rules_version")

        monkeypatch.setattr(PortQosPolicy, "rules_version", property(unread))
        assert plan.is_current()


class TestRuleStats:
    def test_repeated_rule_ids_are_summed(self):
        # Anonymous DROP and FORWARD rules all carry the id "": each
        # anonymous DROP rule's bits add into one shared entry.
        fabric = victim_port_fabric(
            [
                QosRule(match=FlowMatch(src_port=123), action=FilterAction.DROP),
                QosRule(match=FlowMatch(src_port=19), action=FilterAction.DROP),
                QosRule(match=FlowMatch(src_port=443), action=FilterAction.FORWARD),
                QosRule(
                    match=FlowMatch(src_port=53),
                    action=FilterAction.SHAPE,
                    shape_rate_bps=1e3,
                    rule_id="shape-dns",
                ),
            ]
        )
        table = victim_flows(
            [
                (123, 1000), (19, 3000), (443, 5000), (123, 2000),
                (53, 6000), (19, 4000), (80, 8000), (53, 7000),
            ]
        )
        report = assert_matches_reference(fabric, ReferenceFabric(fabric), table)
        stats = column_rule_stats(report.rule_columns)[VICTIM_ASN]
        # (1,000 + 2,000 + 3,000 + 4,000) bytes x 8.
        assert stats[""] == {"matched": 80_000.0, "dropped": 80_000.0, "shaped": 0.0}
        assert set(stats) == {"", "shape-dns"}


class RecordingCollector(IpfixCollector):
    """A collector that also keeps every batch it receives."""

    def __init__(self):
        super().__init__()
        self.batches = []

    def receive(self, batch):
        super().receive(batch)
        self.batches.append(batch)


def recording(fabric: SwitchingFabric) -> RecordingCollector:
    """Install a :class:`RecordingCollector` on ``fabric`` and return it."""
    fabric.collector = RecordingCollector()
    return fabric.collector


class TestIpfixExportFilter:
    """Regression: unknown-egress flows never entered the IXP and must not
    be exported (they used to inflate collector/telemetry totals).  The
    fabric's collector keeps only totals, so the tests read the batches
    it was given."""

    def make_record(self, egress: int, bytes_: int = 1000) -> FlowRecord:
        return FlowRecord(
            key=FiveTuple("23.1.1.1", VICTIM_IP, IpProtocol.UDP, 123, 40000),
            start=0.0,
            duration=10.0,
            bytes=bytes_,
            packets=1,
            ingress_member_asn=PEER_ASNS[0],
            egress_member_asn=egress,
            is_attack=True,
        )

    def test_table_path_exports_only_known_egress(self):
        fabric = build_fabric(with_rules=False)
        table = interval_table(with_unknown=True)
        known = int(
            np.isin(table.egress_asn, np.array([VICTIM_ASN, *PEER_ASNS])).sum()
        )
        assert known < len(table)  # the interval really has alien flows
        collector = recording(fabric)
        fabric.deliver(table, 10.0)
        assert len(collector) == known
        (batch,) = collector.batches
        exported = batch.table
        assert len(exported) == known
        assert set(np.unique(exported.egress_asn).tolist()) <= {
            VICTIM_ASN, *PEER_ASNS
        }

    def test_per_member_table_path_exports_only_known_egress(self):
        """With filtered ports, each member's export equals what it was offered."""
        fabric = build_fabric()
        table = interval_table(with_unknown=True)
        known = int(
            np.isin(table.egress_asn, np.array([VICTIM_ASN, *PEER_ASNS])).sum()
        )
        collector = recording(fabric)
        fabric.deliver(table, 10.0)
        assert len(collector) == known
        (batch,) = collector.batches
        exported = batch.table
        for asn in (VICTIM_ASN, *PEER_ASNS):
            bits = int(exported.bits[exported.egress_asn == asn].sum())
            assert bits == fabric.port_for_member(asn).counters.offered_bits, asn

    def test_record_path_exports_only_known_egress(self):
        fabric = build_fabric(with_rules=False)
        flows = [
            self.make_record(VICTIM_ASN),
            self.make_record(9999),
            self.make_record(PEER_ASNS[0]),
        ]
        collector = recording(fabric)
        report = fabric.deliver(from_records(flows), 10.0)
        assert set(report.results_by_member) == {VICTIM_ASN, PEER_ASNS[0]}
        assert len(collector) == 2
        exported = [
            asn
            for batch in collector.batches
            for asn in batch.table.egress_asn.tolist()
        ]
        assert sorted(exported) == sorted([VICTIM_ASN, PEER_ASNS[0]])

    def test_collector_totals_match_carried_traffic(self):
        # The overcount the bug produced: exported bytes > carried bytes.
        fabric = build_fabric(with_rules=False)
        table = interval_table(with_unknown=True)
        collector = recording(fabric)
        report = fabric.deliver(table, 10.0)
        exported_bits = sum(batch.table.total_bits for batch in collector.batches)
        assert exported_bits == report.offered_bits
        assert sum(collector.bytes_by_exporter().values()) * 8 == exported_bits
