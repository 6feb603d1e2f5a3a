"""Batched fabric delivery: reference parity, lazy results, IPFIX export.

The delivery plan must be indistinguishable from the naive reference in
``tests/oracle`` — same flow verdicts, same bit accounting, same
counters — on multi-router, multi-PoP topologies with
drop/shape/forward rules and stateful shapers across intervals.  These
tests pin that, plus the export regression: flows whose egress member is
unknown never entered the IXP and must not be exported to the collector.
"""

import numpy as np
import pytest

from oracle.reference import ReferenceFabric
from repro.bgp import Prefix
from repro.ixp import (
    EdgeRouter,
    FabricDeliveryPlan,
    FilterAction,
    FlowMatch,
    IxpMember,
    QosRule,
    SwitchingFabric,
    small_ixp_edge_router_profile,
)
from repro.traffic import (
    BenignTrafficSource,
    BooterAttack,
    FiveTuple,
    FlowRecord,
    FlowTable,
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
    assert report.to_dict() == oracle.deliver(table, 10.0, interval_start)
    for asn, result in report.results_by_member.items():
        for name, expected in zip(("forwarded", "dropped", "shaped"), oracle.verdicts[asn]):
            assert record_multiset(getattr(result, name)) == record_multiset(expected), (
                asn, name,
            )
        assert vars(fabric.port_for_member(asn).counters) == oracle.counters[asn], asn


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
        by_member = {}
        for compiled in plan.compiled_rules():
            by_member.setdefault(compiled.member_asn, []).append(compiled)
        assert set(by_member) == {VICTIM_ASN, 65001}
        # Per-port precedence survives compilation.
        victim_positions = [c.port_rule_index for c in by_member[VICTIM_ASN]]
        assert victim_positions == sorted(victim_positions)

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

    def test_recompile_patches_only_the_touched_port(self):
        # A rule change on one member must rebuild only that member's
        # segment; every other port's compiled rules are adopted from the
        # previous plan by identity (the incremental-plan fast path).
        fabric = build_fabric()
        table = interval_table(with_unknown=False)
        fabric.deliver(table, 10.0)
        before = fabric.current_delivery_plan()
        fabric.router_for_member(65001).install_rule(
            65001,
            QosRule(
                match=FlowMatch(src_port=19),
                action=FilterAction.DROP,
                rule_id="late-chargen",
            ),
        )
        after = fabric.current_delivery_plan()
        assert after is not before
        assert after._segments[VICTIM_ASN] is before._segments[VICTIM_ASN]
        assert after._segments[65001] is not before._segments[65001]
        assert after.rule_count == before.rule_count + 1
        assert "late-chargen" in {
            compiled.rule.rule_id for compiled in after.compiled_rules()
        }
        # The patched plan delivers identically to a from-scratch one.
        report_patched = fabric.deliver(table, 10.0, 10.0)
        fabric._plan_cache = None
        report_fresh = fabric.deliver(table, 10.0, 20.0)
        patched, fresh = report_patched.to_dict(), report_fresh.to_dict()
        patched.pop("interval_start"), fresh.pop("interval_start")
        assert patched == fresh

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


class TestIpfixExportFilter:
    """Regression: unknown-egress flows never entered the IXP and must not
    be exported (they used to inflate collector/telemetry totals)."""

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
        fabric.deliver(table, 10.0)
        assert len(fabric.collector) == known
        exported = fabric.collector.tables[0].table
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
        fabric.deliver(table, 10.0)
        assert len(fabric.collector) == known
        exported = fabric.collector.tables[0].table
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
        report = fabric.deliver(FlowTable.from_records(flows), 10.0)
        assert set(report.results_by_member) == {VICTIM_ASN, PEER_ASNS[0]}
        assert len(fabric.collector) == 2
        assert all(
            record.flow.egress_member_asn != 9999
            for record in fabric.collector.records
        )

    def test_collector_totals_match_carried_traffic(self):
        # The overcount the bug produced: exported bytes > carried bytes.
        fabric = build_fabric(with_rules=False)
        table = interval_table(with_unknown=True)
        report = fabric.deliver(table, 10.0)
        exported_bits = sum(
            batch.table.total_bits for batch in fabric.collector.tables
        )
        assert exported_bits == report.offered_bits
