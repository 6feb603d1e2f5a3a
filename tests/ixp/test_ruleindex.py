"""The compiled rule-match index: signatures, parity, caching, shapers.

The index must be *verdict-for-verdict* equal to the naive per-rule first
match of ``tests/oracle`` — ``assign`` rank arrays identical — and
the fabric's accounting on top of it bit-for-bit the reference's.  These tests pin that across mixed
signature groups (exact host rules, broader prefixes shadowing them,
MAC-match rules forcing the fallback path, precedence ties), plus the
rule-set version counter that keeps the cached index (and the fabric's
cached delivery plan) invalidation-safe, and the anonymous-shape-rule
shaper fix.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fuzz.strategies import single_port_fabric
from oracle.records import record_matches, to_records
from oracle.reference import ReferenceFabric, assign, column_rule_stats
from repro.bgp import Prefix
from repro.ixp import (
    EdgeRouter,
    FilterAction,
    FlowMatch,
    IxpMember,
    MatchSignature,
    PortQosPolicy,
    QosRule,
    RuleMatchIndex,
    SwitchingFabric,
    l_ixp_edge_router_profile,
)
from repro.sim.rng import make_rng
from repro.traffic import FlowTable
from repro.traffic.flowtable import derived_mac, ip_to_int
from repro.traffic.packet import IpProtocol


def flow_table(n=2000, seed=5, egress=64500, in_prefix_fraction=0.6,
               ingress=(65001, 65002, 65003)):
    """A mixed interval: a share inside 10.1.0.0/16, reflection ports."""
    rng = make_rng(seed)
    inside = rng.random(n) < in_prefix_fraction
    dst = np.where(
        inside,
        ip_to_int("10.1.0.0") + rng.integers(0, 64, size=n),
        rng.integers(0x0B000000, 0xDF000000, size=n),
    )
    return FlowTable(
        src_ip=rng.integers(0x0B000000, 0xDF000000, size=n).astype(np.uint32),
        dst_ip=dst.astype(np.uint32),
        protocol=rng.choice([6, 17], size=n).astype(np.uint8),
        src_port=rng.choice([19, 53, 123, 11211, 50000, 51000], size=n).astype(np.int32),
        dst_port=rng.integers(1024, 65536, size=n).astype(np.int32),
        start=np.zeros(n),
        duration=np.full(n, 10.0),
        bytes=rng.integers(100, 20000, size=n).astype(np.int64),
        packets=np.ones(n, dtype=np.int64),
        ingress_asn=rng.choice(list(ingress), size=n),
        egress_asn=np.full(n, egress, dtype=np.int64),
        is_attack=np.zeros(n, dtype=bool),
    )


def host_drop(host, port, rule_id, protocol=IpProtocol.UDP):
    return QosRule(
        match=FlowMatch(
            dst_prefix=Prefix.parse(f"{host}/32"), protocol=protocol, src_port=port
        ),
        action=FilterAction.DROP,
        rule_id=rule_id,
    )


def mixed_rules():
    """Rules spanning every signature kind, with deliberate shadowing."""
    return [
        host_drop("10.1.0.1", 123, "exact-ntp"),
        host_drop("10.1.0.1", 53, "exact-dns"),
        host_drop("10.1.0.2", 123, "exact-ntp-2"),
        # Broader prefix rule that shadows the host rules' traffic when
        # they don't match (and is itself shadowed when they do).
        QosRule(
            match=FlowMatch(dst_prefix=Prefix.parse("10.1.0.0/16"), src_port=123),
            action=FilterAction.DROP,
            rule_id="prefix-ntp",
        ),
        # MAC policy-control rule: forces the masked fallback path.
        QosRule(
            match=FlowMatch(
                dst_prefix=Prefix.parse("10.1.0.0/16"), src_mac=derived_mac(65002)
            ),
            action=FilterAction.DROP,
            rule_id="mac-peer",
        ),
        # Named shape rule (exact signature, stateful shaper).
        QosRule(
            match=FlowMatch(
                dst_prefix=Prefix.parse("10.1.0.3/32"),
                protocol=IpProtocol.UDP,
                src_port=11211,
            ),
            action=FilterAction.SHAPE,
            shape_rate_bps=2e6,
            rule_id="shape-memcached",
        ),
        # dst_port-only rule (exact group with a different field set).
        QosRule(
            match=FlowMatch(dst_port=4444),
            action=FilterAction.DROP,
            rule_id="dstport-only",
        ),
        # Catch-all FORWARD rule (fallback, matches everything).
        QosRule(match=FlowMatch(), action=FilterAction.FORWARD, rule_id="catch-all"),
    ]


def make_fabric(rules=None, port_capacity_bps=100e9):
    """A single port (ASN 64500, the tables' egress) holding ``rules``."""
    fabric, port = single_port_fabric(port_capacity_bps=port_capacity_bps)
    for rule in rules if rules is not None else mixed_rules():
        port.qos.install(rule)
    return fabric, port


def make_policy(rules=None):
    return make_fabric(rules)[1].qos


def deliver(fabric, table, interval=10.0):
    """The single port's result for one interval."""
    return fabric.deliver(table, interval).results_by_member[64500]


def deliver_with_rule_stats(fabric, table, interval=10.0):
    """The single port's result and its rule rows for one interval."""
    report = fabric.deliver(table, interval)
    stats = column_rule_stats(report.rule_columns).get(64500, {})
    return report.results_by_member[64500], stats


class TestMatchSignature:
    def test_dominant_stellar_shape_is_exact(self):
        match = FlowMatch(
            dst_prefix=Prefix.parse("10.1.0.1/32"),
            protocol=IpProtocol.UDP,
            src_port=123,
        )
        signature = MatchSignature.of(match)
        assert signature.is_exact
        assert signature.exact_fields == ("dst_ip", "protocol", "src_port")
        assert signature.key_bits == 56

    def test_mac_and_broad_prefix_force_fallback(self):
        assert not MatchSignature.of(FlowMatch(src_mac="02:00:00:00:00:01")).is_exact
        assert not MatchSignature.of(
            FlowMatch(dst_prefix=Prefix.parse("10.0.0.0/8"))
        ).is_exact
        assert not MatchSignature.of(FlowMatch()).is_exact

    def test_ipv6_host_falls_back(self):
        assert not MatchSignature.of(
            FlowMatch(dst_prefix=Prefix.parse("2001:db8::1/128"))
        ).is_exact

    def test_key_overflow_falls_back(self):
        match = FlowMatch(
            dst_prefix=Prefix.parse("10.1.0.1/32"),
            src_prefix=Prefix.parse("10.2.0.1/32"),
            protocol=IpProtocol.UDP,
            src_port=1,
            dst_port=2,
        )
        signature = MatchSignature.of(match)
        assert signature.key_bits > 64 and not signature.is_exact

    def test_index_partitions_rules(self):
        index = RuleMatchIndex(make_policy().sorted_rules())
        stats = index.describe()
        assert stats["rules"] == len(mixed_rules())
        # The broad-prefix rule, the MAC rule and the catch-all fall back.
        assert stats["fallback_rules"] == 3
        assert stats["exact_rules"] == stats["rules"] - 3
        assert stats["exact_groups"] >= 2  # host-shape group + dst_port group


class TestAssignParity:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_mixed_signatures(self, seed):
        table = flow_table(seed=seed)
        policy = make_policy()
        indexed = policy.compiled_index().assign(table)
        assert np.array_equal(indexed, assign(policy, table))
        # The catch-all claims everything unclaimed, so every row has a
        # rank; several distinct rules must actually win rows.
        assert (indexed >= 0).all()
        assert len(np.unique(indexed)) >= 4

    def test_randomized_rule_sets(self):
        rng = make_rng(99)
        for round_index in range(5):
            rules = []
            for i in range(int(rng.integers(5, 40))):
                kind = int(rng.integers(0, 5))
                host = f"10.1.{int(rng.integers(0, 2))}.{int(rng.integers(0, 8))}"
                port = int(rng.choice([19, 53, 123, 11211]))
                if kind == 0:
                    rules.append(host_drop(host, port, f"r{round_index}-{i}"))
                elif kind == 1:
                    rules.append(
                        QosRule(
                            match=FlowMatch(
                                dst_prefix=Prefix.parse(
                                    f"10.1.0.0/{int(rng.choice([8, 16, 24]))}"
                                ),
                                src_port=port,
                            ),
                            action=FilterAction.DROP,
                            rule_id=f"r{round_index}-{i}",
                        )
                    )
                elif kind == 2:
                    rules.append(
                        QosRule(
                            match=FlowMatch(
                                src_mac=derived_mac(int(rng.choice([65001, 65002])))
                            ),
                            action=FilterAction.DROP,
                            rule_id=f"r{round_index}-{i}",
                        )
                    )
                elif kind == 3:
                    rules.append(
                        QosRule(
                            match=FlowMatch(
                                dst_prefix=Prefix.parse(f"{host}/32"),
                                protocol=IpProtocol.UDP,
                                src_port=port,
                            ),
                            action=FilterAction.SHAPE,
                            shape_rate_bps=1e6,
                            rule_id=f"r{round_index}-{i}",
                        )
                    )
                else:
                    rules.append(
                        QosRule(
                            match=FlowMatch(dst_port=int(rng.integers(1024, 2048))),
                            action=FilterAction.DROP,
                            rule_id=f"r{round_index}-{i}",
                        )
                    )
            table = flow_table(seed=100 + round_index)
            policy = make_policy(rules)
            assert np.array_equal(policy.compiled_index().assign(table), assign(policy, table))

    def test_full_apply_bit_for_bit(self):
        table = flow_table(seed=8)
        fabric, _ = make_fabric()
        oracle = ReferenceFabric(fabric)
        report = fabric.deliver(table, 10.0)
        assert column_rule_stats(report.rule_columns)[64500]  # rules matched something
        assert report.to_dict() == oracle.deliver(table, 10.0)
        result = report.results_by_member[64500]
        forwarded, dropped, shaped = oracle.verdicts[64500]
        assert to_records(result.forwarded_table) == forwarded
        assert to_records(result.dropped_table) == dropped
        assert to_records(result.shaped_table) == shaped


class TestPrecedence:
    def test_host_rule_beats_broader_prefix(self):
        table = flow_table(seed=3)
        policy = make_policy()
        rules = policy.sorted_rules()
        ntp_host = table.select(
            (table.dst_ip == ip_to_int("10.1.0.1"))
            & (table.src_port == 123)
            & (table.protocol == 17)
        )
        assert len(ntp_host)
        for ranks in (policy.compiled_index().assign(ntp_host), assign(policy, ntp_host)):
            assert all(rules[r].rule_id == "exact-ntp" for r in ranks.tolist())
        # NTP flows to other 10.1/16 hosts fall through to the prefix
        # rule (regardless of protocol: the prefix rule matches any).
        other = table.select(
            (table.dst_ip == ip_to_int("10.1.0.5")) & (table.src_port == 123)
        )
        assert len(other)
        for ranks in (policy.compiled_index().assign(other), assign(policy, other)):
            assert all(rules[r].rule_id == "prefix-ntp" for r in ranks.tolist())

    def test_fallback_rule_can_shadow_exact_rule(self):
        # A MAC rule with more criteria than a bare host rule outranks it.
        rules = [
            QosRule(
                match=FlowMatch(dst_prefix=Prefix.parse("10.1.0.1/32")),
                action=FilterAction.DROP,
                rule_id="bare-host",
            ),
            QosRule(
                match=FlowMatch(
                    dst_prefix=Prefix.parse("10.1.0.1/32"),
                    protocol=IpProtocol.UDP,
                    src_mac=derived_mac(65002),
                ),
                action=FilterAction.DROP,
                rule_id="mac-udp-host",
            ),
        ]
        table = flow_table(seed=4)
        selector = (
            (table.dst_ip == ip_to_int("10.1.0.1"))
            & (table.protocol == 17)
            & (table.ingress_asn == 65002)
        )
        sub = table.select(selector)
        assert len(sub) > 0
        policy = make_policy(rules)
        sorted_rules = policy.sorted_rules()
        for ranks in (policy.compiled_index().assign(sub), assign(policy, sub)):
            assert all(sorted_rules[r].rule_id == "mac-udp-host" for r in ranks.tolist())

    def test_specificity_tie_keeps_install_order(self):
        # Two identical matches, different ids: the earliest install wins.
        rule_a = host_drop("10.1.0.1", 123, "first")
        rule_b = host_drop("10.1.0.1", 123, "second")
        table = flow_table(seed=6)
        policy = make_policy([rule_a, rule_b])
        rules = policy.sorted_rules()
        for ranks in (policy.compiled_index().assign(table), assign(policy, table)):
            winners = {rules[r].rule_id for r in ranks[ranks >= 0].tolist()}
            assert winners == {"first"}


class TestVersionCounterAndCaching:
    def test_mutations_bump_version(self):
        policy = PortQosPolicy(port_capacity_bps=10e9)
        v0 = policy.rules_version
        policy.install(host_drop("10.1.0.1", 123, "a"))
        v1 = policy.rules_version
        assert v1 > v0
        policy.install_many([host_drop("10.1.0.2", 53, "b"), host_drop("10.1.0.3", 19, "c")])
        v2 = policy.rules_version
        assert v2 == v1 + 1  # one bump for the whole batch
        policy.remove("b")
        assert policy.rules_version > v2
        policy.clear()
        assert policy.rules_version > v2 + 1

    def test_index_cached_until_version_changes(self):
        policy = make_policy()
        first = policy.compiled_index()
        assert policy.compiled_index() is first
        policy.compiled_index().assign(flow_table(n=50))
        assert policy.compiled_index() is first
        policy.install(host_drop("10.1.0.9", 19, "late"))
        assert policy.compiled_index() is not first

    def test_mid_run_install_and_remove_are_picked_up(self):
        fabric, port = make_fabric([])
        table = flow_table(seed=12)
        before = deliver(fabric, table)
        assert before.dropped_bits == 0.0
        port.qos.install(
            QosRule(
                match=FlowMatch(src_port=123), action=FilterAction.DROP, rule_id="mid"
            )
        )
        during, during_stats = deliver_with_rule_stats(fabric, table)
        assert during.dropped_bits > 0.0
        assert during_stats["mid"]["dropped"] == during.dropped_bits
        port.qos.remove("mid")
        after = deliver(fabric, table)
        assert after.dropped_bits == 0.0

    def test_install_many_equals_sequential_installs(self):
        rules = mixed_rules() + [host_drop("10.1.0.1", 123, "exact-ntp")]  # dup id
        sequential = PortQosPolicy(port_capacity_bps=10e9)
        for rule in rules:
            sequential.install(rule)
        bulk = PortQosPolicy(port_capacity_bps=10e9)
        bulk.install_many(rules)
        assert [r.rule_id for r in bulk.sorted_rules()] == [
            r.rule_id for r in sequential.sorted_rules()
        ]
        table = flow_table(seed=13)
        assert np.array_equal(
            bulk.compiled_index().assign(table), sequential.compiled_index().assign(table)
        )


class TestFabricPlanCache:
    def build_fabric(self):
        fabric = SwitchingFabric(name="t-ixp")
        fabric.add_edge_router(EdgeRouter("edge-1", profile=l_ixp_edge_router_profile()))
        victim = IxpMember(asn=64500, port_capacity_bps=100e9)
        peer = IxpMember(asn=65001, port_capacity_bps=10e9)
        fabric.connect_member(victim)
        fabric.connect_member(peer)
        return fabric

    def test_plan_reused_across_intervals(self):
        fabric = self.build_fabric()
        table = flow_table(n=500, seed=20)
        fabric.deliver(table, 10.0, 0.0)
        plan = fabric._plan_cache
        assert plan is not None
        fabric.deliver(table, 10.0, 10.0)
        assert fabric._plan_cache is plan

    def test_rule_install_invalidates_plan(self):
        fabric = self.build_fabric()
        table = flow_table(n=500, seed=21)
        report = fabric.deliver(table, 10.0, 0.0)
        plan = fabric._plan_cache
        assert report.results_by_member[64500].dropped_bits == 0.0
        fabric.router_for_member(64500).install_rule(
            64500,
            QosRule(
                match=FlowMatch(src_port=123), action=FilterAction.DROP, rule_id="mid"
            ),
        )
        report = fabric.deliver(table, 10.0, 10.0)
        assert fabric._plan_cache is not plan
        assert report.results_by_member[64500].dropped_bits > 0.0

    def test_new_member_invalidates_plan(self):
        fabric = self.build_fabric()
        table = flow_table(n=200, seed=22)
        fabric.deliver(table, 10.0, 0.0)
        plan = fabric._plan_cache
        fabric.connect_member(IxpMember(asn=65002, port_capacity_bps=10e9))
        fabric.deliver(table, 10.0, 10.0)
        assert fabric._plan_cache is not plan


def shared_rule_fabric(member_count, filtered_count):
    """``member_count`` members on one router; the first ``filtered_count``
    hold the same mixed rule list, and an interval of traffic to each."""
    fabric = SwitchingFabric(name="shared-ixp")
    fabric.add_edge_router(EdgeRouter("edge-1", profile=l_ixp_edge_router_profile()))
    asns = [64500 + index for index in range(member_count)]
    for asn in asns:
        fabric.connect_member(IxpMember(asn=asn, port_capacity_bps=100e9))
    for asn in asns[:filtered_count]:
        fabric.router_for_member(asn).install_rules(asn, mixed_rules())
    table = FlowTable.concat(
        [flow_table(n=300, seed=40 + index, egress=asn) for index, asn in enumerate(asns)]
    )
    return fabric, asns, table


class TestOnePassClassification:
    """The delivery plan classifies every filtered port's rows in one
    :meth:`RuleMatchIndex.assign` of the ports' composed index."""

    @pytest.mark.parametrize("filtered_count", [1, 3, 6])
    def test_one_assign_per_deliver(self, monkeypatch, filtered_count):
        fabric, asns, table = shared_rule_fabric(6, filtered_count)
        rows = []
        assign = RuleMatchIndex.assign

        def counted(index, table, slots=None):
            ranks = assign(index, table, slots)
            rows.append(len(ranks))
            return ranks

        monkeypatch.setattr(RuleMatchIndex, "assign", counted)
        report = fabric.deliver(table, 10.0)
        filtered = np.isin(table.egress_asn, asns[:filtered_count])
        assert rows == [int(filtered.sum())]
        assert report.filtered_bits > 0.0

    def test_unchanged_port_not_recompiled(self, monkeypatch):
        fabric, asns, table = shared_rule_fabric(3, 3)
        fabric.deliver(table, 10.0, 0.0)
        indexes = {asn: fabric.port_for_member(asn).qos.compiled_index() for asn in asns}
        compiled = []
        compile_index = RuleMatchIndex.__init__

        def counted(index, rules):
            compiled.append(len(rules))
            compile_index(index, rules)

        monkeypatch.setattr(RuleMatchIndex, "__init__", counted)
        plan = fabric._plan_cache
        fabric.router_for_member(asns[1]).install_rule(asns[1], host_drop("10.1.0.9", 19, "new"))
        fabric.deliver(table, 10.0, 10.0)
        assert fabric._plan_cache is not plan
        assert compiled == [len(mixed_rules()) + 1]
        for asn in (asns[0], asns[2]):
            assert fabric.port_for_member(asn).qos.compiled_index() is indexes[asn]

    def test_composed_ranks_are_member_ranks_plus_offsets(self):
        """Members holding the same keys each resolve to their own rules."""
        fabric, asns, table = shared_rule_fabric(3, 3)
        policies = [fabric.port_for_member(asn).qos for asn in asns]
        policies[2].install(host_drop("10.1.0.2", 53, "extra"))
        indexes = [policy.compiled_index() for policy in policies]
        offsets = [0, 40, 90]
        parts = [table.select(table.egress_asn == asn) for asn in asns]
        lengths = [len(part) for part in parts]
        slots = np.repeat(np.arange(len(asns)), lengths)
        ranks = RuleMatchIndex.compose(indexes, offsets).assign(FlowTable.concat(parts), slots)
        expected = []
        for index, part, offset in zip(indexes, parts, offsets):
            own = index.assign(part)
            expected.append(np.where(own >= 0, own + offset, -1))
        assert np.array_equal(ranks, np.concatenate(expected))
        assert (ranks >= 0).any()


class TestAnonymousShapeRules:
    def anon_shape(self, rate, port):
        return QosRule(
            match=FlowMatch(protocol=IpProtocol.UDP, src_port=port),
            action=FilterAction.SHAPE,
            shape_rate_bps=rate,
        )

    def test_anonymous_rules_get_unique_ids_and_shapers(self):
        policy = PortQosPolicy(port_capacity_bps=10e9)
        policy.install(self.anon_shape(1e6, 123))
        policy.install(self.anon_shape(8e6, 53))
        ids = [rule.rule_id for rule in policy.rules()]
        assert len(set(ids)) == 2 and all(ids)
        shapers = [policy.shaper_for(rule_id) for rule_id in ids]
        assert shapers[0] is not None and shapers[1] is not None
        assert shapers[0] is not shapers[1]

    def test_two_anonymous_rules_shape_independently(self):
        # Regression: both anonymous SHAPE rules used to share the single
        # "anon" RateLimiter, so the second rule silently adopted the
        # first rule's token bucket.
        interval = 10.0
        fabric, port = make_fabric([], port_capacity_bps=10e9)
        port.qos.install(self.anon_shape(5e5, 123))   # 5 Mbit budget
        port.qos.install(self.anon_shape(2e6, 53))    # 20 Mbit budget
        table = flow_table(n=4000, seed=30, in_prefix_fraction=0.0)
        offered_123 = float(
            table.bits[(table.src_port == 123) & (table.protocol == 17)].sum()
        )
        offered_53 = float(
            table.bits[(table.src_port == 53) & (table.protocol == 17)].sum()
        )
        assert offered_123 > 5e5 * interval and offered_53 > 2e6 * interval
        result, rule_stats = deliver_with_rule_stats(fabric, table, interval)
        shaped = {rule_id: stats["shaped"] for rule_id, stats in rule_stats.items()}
        assert len(shaped) == 2
        budgets = sorted(shaped.values())
        assert budgets[0] == pytest.approx(5e5 * interval, rel=0.05)
        assert budgets[1] == pytest.approx(2e6 * interval, rel=0.05)
        assert result.shaped_passed_bits == pytest.approx(2.5e6 * interval, rel=0.05)

    def test_anonymous_drop_rules_unchanged(self):
        fabric, port = make_fabric([], port_capacity_bps=10e9)
        port.qos.install(
            QosRule(match=FlowMatch(src_port=123), action=FilterAction.DROP)
        )
        assert port.qos.rules()[0].rule_id == ""
        result, rule_stats = deliver_with_rule_stats(fabric, flow_table(n=500, seed=31))
        assert result.dropped_bits > 0
        assert "" in rule_stats


class TestBulkInstall:
    def test_tcam_exhaustion_mid_batch_keeps_allocated_prefix_active(self):
        # Exception safety: a batch that exhausts the TCAM must leave the
        # router exactly where sequential install_rule calls would have —
        # the rules allocated before the failure are active on the data
        # plane, and the TCAM accounting matches them.
        from dataclasses import replace

        from repro.ixp import TcamExhaustedError

        profile = replace(
            l_ixp_edge_router_profile(),
            name="tiny-tcam",
            l3l4_criteria_capacity=7,  # fits two 3-criterion rules, not three
        )
        router = EdgeRouter("edge-1", profile=profile)
        fabric = SwitchingFabric(name="t-ixp")
        fabric.add_edge_router(router)
        fabric.connect_member(IxpMember(asn=64500, port_capacity_bps=10e9))
        rules = [host_drop(f"10.1.0.{i}", 123, f"r{i}") for i in range(5)]
        with pytest.raises(TcamExhaustedError):
            router.install_rules(64500, rules)
        port = router.port_for(64500)
        assert len(port.qos) == 2
        assert {rule.rule_id for rule in port.qos.rules()} == {"r0", "r1"}
        assert router.tcam.l3l4_criteria_used == 6
        assert {r.rule_id for r in router.installed_rules()} == {"r0", "r1"}
        # ... and the active rules really classify traffic.
        _, rule_stats = deliver_with_rule_stats(fabric, flow_table(n=500, seed=40))
        assert set(rule_stats) <= {"r0", "r1"}

    def test_stale_plan_execute_is_rejected(self):
        from repro.ixp import FabricDeliveryPlan

        fabric = SwitchingFabric(name="t-ixp")
        fabric.add_edge_router(EdgeRouter("edge-1", profile=l_ixp_edge_router_profile()))
        fabric.connect_member(IxpMember(asn=64500, port_capacity_bps=10e9))
        plan = FabricDeliveryPlan(fabric)
        fabric.router_for_member(64500).install_rule(
            64500,
            QosRule(
                match=FlowMatch(src_port=123), action=FilterAction.DROP, rule_id="late"
            ),
        )
        with pytest.raises(RuntimeError, match="stale"):
            plan.execute(flow_table(n=10, seed=41), 10.0)
        # The fabric-level entry point transparently recompiles instead.
        report = fabric.deliver(flow_table(n=500, seed=41), 10.0)
        assert report.results_by_member[64500].dropped_bits > 0.0

    def test_bulk_reinstall_replaces_in_place(self):
        # Re-staging a batch under the same ids (e.g. flipping actions)
        # must replace rules and keep TCAM accounting balanced, without
        # the per-rule remove/re-sort path.
        router = EdgeRouter("edge-1", profile=l_ixp_edge_router_profile())
        fabric = SwitchingFabric(name="t-ixp")
        fabric.add_edge_router(router)
        fabric.connect_member(IxpMember(asn=64500, port_capacity_bps=10e9))
        rules = [host_drop(f"10.1.0.{i}", 123, f"r{i}") for i in range(20)]
        router.install_rules(64500, rules)
        used_after_first = router.tcam.l3l4_criteria_used
        replacement = [
            QosRule(
                match=rule.match,
                action=FilterAction.SHAPE,
                shape_rate_bps=1e6,
                rule_id=rule.rule_id,
            )
            for rule in rules
        ]
        router.install_rules(64500, replacement)
        port = router.port_for(64500)
        assert len(port.qos) == 20
        assert all(
            rule.action is FilterAction.SHAPE for rule in port.qos.rules()
        )
        assert router.tcam.l3l4_criteria_used == used_after_first
        assert len(router.installed_rules()) == 20


def layout(index):
    """A compiled index's rules in rank order and its group sizes."""
    return [rule.rule_id for rule in index._rules], index.describe()


class TestIncrementalDeltas:
    """with_installed / with_removed: a scratch compile of the edited list.

    Each edited copy must lay its rules out exactly as a compile of the
    edited list does (same ranks, same groups), and leave the index it
    was made from as it was.
    """

    def scratch(self, rules):
        return layout(RuleMatchIndex(rules))

    def test_install_at_every_rank_matches_scratch(self):
        rules = mixed_rules()
        base = RuleMatchIndex(rules)
        newcomer = host_drop("10.1.0.77", 19, "newcomer")
        for rank in range(len(rules) + 1):
            edited = base.with_installed(newcomer, rank)
            expected = rules[:rank] + [newcomer] + rules[rank:]
            assert layout(edited) == self.scratch(expected), rank

    def test_install_default_rank_appends(self):
        rules = mixed_rules()
        newcomer = host_drop("10.1.0.77", 19, "newcomer")
        edited = RuleMatchIndex(rules).with_installed(newcomer)
        assert layout(edited) == self.scratch(rules + [newcomer])

    def test_install_fallback_rule_matches_scratch(self):
        rules = mixed_rules()
        base = RuleMatchIndex(rules)
        broad = QosRule(
            match=FlowMatch(dst_prefix=Prefix.parse("10.2.0.0/16"), src_port=53),
            action=FilterAction.DROP,
            rule_id="broad-dns",
        )
        for rank in (0, 3, len(rules)):
            edited = base.with_installed(broad, rank)
            expected = rules[:rank] + [broad] + rules[rank:]
            assert layout(edited) == self.scratch(expected), rank

    def test_remove_each_rule_matches_scratch(self):
        rules = mixed_rules()
        base = RuleMatchIndex(rules)
        table = flow_table(seed=6)
        for rank, rule in enumerate(rules):
            edited = base.with_removed(rule.rule_id, rank)
            expected = rules[:rank] + rules[rank + 1 :]
            assert layout(edited) == self.scratch(expected), rule.rule_id
            assert np.array_equal(
                edited.assign(table), RuleMatchIndex(expected).assign(table)
            ), rule.rule_id

    def test_remove_by_id_finds_rank(self):
        rules = mixed_rules()
        edited = RuleMatchIndex(rules).with_removed("mac-peer")
        expected = [rule for rule in rules if rule.rule_id != "mac-peer"]
        assert layout(edited) == self.scratch(expected)

    def test_duplicate_exact_keys_survive_removal(self):
        # Two rules with an identical packed key: removing one must leave
        # the other in the group.
        rules = [
            host_drop("10.1.0.1", 123, "first"),
            host_drop("10.1.0.1", 123, "second"),
        ]
        edited = RuleMatchIndex(rules).with_removed("first", 0)
        assert layout(edited) == self.scratch([rules[1]])
        table = flow_table(seed=6)
        hits = edited.assign(table)
        assert (hits >= 0).any()
        assert (hits[hits >= 0] == 0).all()

    def test_delta_ops_leave_the_base_untouched(self):
        rules = mixed_rules()
        base = RuleMatchIndex(rules)
        before = layout(base)
        table = flow_table(seed=6)
        hits = base.assign(table)
        base.with_installed(host_drop("10.1.0.9", 53, "x"), 0)
        base.with_removed("catch-all")
        assert layout(base) == before
        assert np.array_equal(base.assign(table), hits)

    def test_chained_deltas_match_scratch(self):
        rules = mixed_rules()
        index = RuleMatchIndex(rules)
        index = index.with_installed(host_drop("10.1.0.8", 19, "chain-a"), 2)
        rules.insert(2, host_drop("10.1.0.8", 19, "chain-a"))
        index = index.with_removed("prefix-ntp")
        rules = [rule for rule in rules if rule.rule_id != "prefix-ntp"]
        index = index.with_installed(
            QosRule(match=FlowMatch(dst_port=9), action=FilterAction.DROP, rule_id="chain-b"),
            0,
        )
        rules.insert(0, QosRule(match=FlowMatch(dst_port=9), action=FilterAction.DROP, rule_id="chain-b"))
        assert layout(index) == self.scratch(rules)

    def test_install_rank_out_of_range(self):
        base = RuleMatchIndex(mixed_rules())
        with pytest.raises(IndexError, match="insert rank"):
            base.with_installed(host_drop("10.1.0.9", 19, "x"), len(mixed_rules()) + 1)
        with pytest.raises(IndexError, match="insert rank"):
            base.with_installed(host_drop("10.1.0.9", 19, "x"), -1)

    def test_remove_unknown_id_raises(self):
        base = RuleMatchIndex(mixed_rules())
        with pytest.raises(KeyError, match="no rule with id"):
            base.with_removed("ghost")

    def test_remove_rank_id_mismatch_raises(self):
        base = RuleMatchIndex(mixed_rules())
        with pytest.raises(KeyError, match="carries id"):
            base.with_removed("exact-ntp", 3)
        with pytest.raises(IndexError, match="remove rank"):
            base.with_removed("exact-ntp", 99)
        with pytest.raises(IndexError, match="remove rank"):
            base.with_removed("exact-ntp", -1)


def edit_pool():
    """Rules a generated edit draws from: every signature kind of
    :func:`mixed_rules`, a duplicate of one of its exact keys under a
    new id, a rule opening a new exact group, and binned / unbinned
    fallback rules."""
    return mixed_rules() + [
        host_drop("10.1.0.1", 123, "dup-ntp"),  # exact-ntp's packed key
        QosRule(match=FlowMatch(src_port=1900), action=FilterAction.DROP, rule_id="ssdp"),
        QosRule(
            match=FlowMatch(dst_prefix=Prefix.parse("10.1.2.0/24")),
            action=FilterAction.DROP,
            rule_id="bin-24",
        ),
        QosRule(
            match=FlowMatch(dst_prefix=Prefix.parse("10.0.0.0/8"), src_port=19),
            action=FilterAction.DROP,
            rule_id="wide-8",
        ),
        QosRule(
            match=FlowMatch(src_mac=derived_mac(65003)),
            action=FilterAction.DROP,
            rule_id="mac-only",
        ),
    ]


@st.composite
def policy_edits(draw):
    """``(base rules, edits)``: a sequence of ``install`` / ``install_many`` /
    ``remove`` calls over :func:`edit_pool` (ids may repeat, so installs
    also replace, and removes may name an id that is not installed)."""
    pool = edit_pool()
    base = draw(st.lists(st.sampled_from(pool), max_size=10))
    pick = st.sampled_from(pool)
    edit = st.one_of(
        st.tuples(st.just("install"), pick),
        st.tuples(st.just("install_many"), st.lists(pick, max_size=5)),
        st.tuples(st.just("remove"), pick.map(lambda rule: rule.rule_id)),
    )
    return base, draw(st.lists(edit, min_size=1, max_size=12))


class TestCompiledIndexCache:
    """PortQosPolicy.compiled_index() compiles the sorted rules once per version."""

    def check(self, policy, table):
        index = policy.compiled_index()
        assert index.describe() == RuleMatchIndex(policy.sorted_rules()).describe()
        assert np.array_equal(policy.compiled_index().assign(table), assign(policy, table))
        return index

    def test_each_mutation_recompiles(self):
        policy = make_policy()
        table = flow_table(seed=16)
        previous = self.check(policy, table)
        for mutate in (
            lambda: policy.install(host_drop("10.1.0.50", 19, "late")),
            lambda: policy.remove("prefix-ntp"),
            lambda: policy.install(host_drop("10.1.0.1", 123, "exact-ntp")),  # replace
        ):
            mutate()
            current = self.check(policy, table)
            assert current is not previous
            previous = current

    @pytest.mark.parametrize("extra", [0, 1])
    def test_install_many_either_side_of_the_splice_limit(self, extra):
        # Up to the limit a batch is bisected into the sorted view; past it
        # one stable re-sort runs.  Both must leave the order sequential
        # installs leave.
        from repro.ixp.qos import _SPLICE_BATCH_LIMIT

        batch = [
            host_drop(f"10.1.{i // 200}.{i % 200}", (53, 123)[i % 2], f"b{i}")
            for i in range(_SPLICE_BATCH_LIMIT + extra - 1)
        ] + [host_drop("10.1.0.1", 123, "exact-ntp")]  # replaces a rule
        bulk = make_policy()
        bulk.compiled_index()
        bulk.install_many(batch)
        sequential = make_policy()
        for rule in batch:
            sequential.install(rule)
        assert [r.rule_id for r in bulk.sorted_rules()] == [
            r.rule_id for r in sequential.sorted_rules()
        ]
        self.check(bulk, flow_table(seed=18))

    def test_removing_a_duplicate_key_uncovers_the_other(self):
        policy = make_policy(
            [host_drop("10.1.0.1", 123, "first"), host_drop("10.1.0.1", 123, "second")]
        )
        table = flow_table(seed=6)
        policy.compiled_index()
        policy.remove("first")
        hits = self.check(policy, table).assign(table)
        assert (hits >= 0).any()
        assert (hits[hits >= 0] == 0).all()
        assert policy.sorted_rules()[0].rule_id == "second"

    def test_clear_resets_and_recompiles(self):
        policy = make_policy()
        policy.compiled_index()
        policy.clear()
        index = policy.compiled_index()
        assert index.rule_count == 0

    def test_warm_and_cold_caches_classify_identically(self):
        table = flow_table(seed=17)
        warm = make_policy()
        warm.compiled_index()  # cached before the mutations below
        cold = make_policy()
        for policy in (warm, cold):
            policy.install(host_drop("10.1.0.40", 123, "late"))
            policy.remove("exact-dns")
        assert np.array_equal(
            warm.compiled_index().assign(table), cold.compiled_index().assign(table)
        )

    @pytest.mark.parametrize("warm", [False, True])
    @given(case=policy_edits())
    def test_generated_edits_match_a_scratch_compile(self, warm, case):
        base_rules, edits = case
        policy = PortQosPolicy(port_capacity_bps=10e9)
        policy.install_many(base_rules)
        table = flow_table(n=300, seed=19)
        for kind, item in edits:
            if warm:
                policy.compiled_index()
            getattr(policy, kind)(item)
        assert layout(policy.compiled_index()) == layout(
            RuleMatchIndex(policy.sorted_rules())
        )
        assert np.array_equal(policy.compiled_index().assign(table), assign(policy, table))

    def test_removing_a_signatures_last_rule_drops_its_group(self):
        policy = make_policy()
        before = policy.compiled_index()
        # dstport-only is its exact group's only rule; catch-all and
        # mac-peer are the only rules of their fallback signatures.
        for rule_id in ("dstport-only", "catch-all", "mac-peer"):
            policy.remove(rule_id)
        after = self.check(policy, flow_table(seed=20))
        assert after.exact_group_count == before.exact_group_count - 1
        assert after.fallback_group_count == before.fallback_group_count - 2

    def test_installing_a_new_signature_opens_its_group(self):
        policy = make_policy()
        before = policy.compiled_index()
        policy.install_many(
            [
                QosRule(match=FlowMatch(src_port=1900), action=FilterAction.DROP, rule_id="ssdp"),
                host_drop("10.1.0.1", 123, "dup-ntp"),  # an existing exact key
            ]
        )
        after = self.check(policy, flow_table(seed=21))
        assert after.exact_group_count == before.exact_group_count + 1
        assert after.exact_rule_count == before.exact_rule_count + 2

    def test_a_replacement_inside_a_batch_keeps_one_copy(self):
        policy = make_policy()
        policy.compiled_index()
        replacement = host_drop("10.1.0.60", 53, "exact-ntp")
        policy.install_many([host_drop("10.1.0.61", 19, "fresh"), replacement])
        assert policy.rule_ids().count("exact-ntp") == 1
        index = self.check(policy, flow_table(seed=22))
        assert index.rule_count == len(mixed_rules()) + 1
        expected = [rule for rule in mixed_rules() if rule.rule_id != "exact-ntp"]
        expected += [host_drop("10.1.0.61", 19, "fresh"), replacement]
        assert layout(index) == layout(make_policy(expected).compiled_index())

    def test_install_then_remove_classifies_as_before(self):
        policy = make_policy()
        table = flow_table(seed=23)
        before = layout(policy.compiled_index())
        hits = policy.compiled_index().assign(table)
        policy.install(host_drop("10.1.0.77", 19, "newcomer"))
        policy.remove("newcomer")
        assert layout(self.check(policy, table)) == before
        assert np.array_equal(policy.compiled_index().assign(table), hits)

    @pytest.mark.parametrize("no_op", ["empty-batch", "unknown-id", "clear-empty"])
    def test_no_op_mutations_leave_the_index_warm(self, no_op):
        policy = make_policy([] if no_op == "clear-empty" else None)
        cached = policy.compiled_index()
        version = policy.rules_version
        if no_op == "empty-batch":
            policy.install_many([])
        elif no_op == "unknown-id":
            assert not policy.remove("ghost")
        else:
            policy.clear()
        assert policy.rules_version == version
        assert policy.compiled_index() is cached

    def test_a_batch_that_fails_to_iterate_leaves_the_cached_index(self):
        policy = make_policy()
        cached = policy.compiled_index()
        version = policy.rules_version

        def batch():
            yield host_drop("10.1.0.80", 19, "fine")
            raise RuntimeError("feed broke")

        with pytest.raises(RuntimeError, match="feed broke"):
            policy.install_many(batch())
        assert policy.rules_version == version
        assert "fine" not in policy.rule_ids()
        assert policy.compiled_index() is cached

    @pytest.mark.parametrize("extra", [0, 1])
    def test_later_duplicates_in_a_batch_win(self, extra):
        # Either side of the splice limit the last copy of an id is the
        # one installed, at its own position in the batch.
        from repro.ixp.qos import _SPLICE_BATCH_LIMIT

        batch = [
            host_drop(f"10.2.{i // 200}.{i % 200}", 53, f"d{i}")
            for i in range(_SPLICE_BATCH_LIMIT + extra - 1)
        ]
        batch.insert(0, host_drop("10.2.9.9", 19, "twice"))
        batch.append(host_drop("10.2.9.10", 123, "twice"))
        policy = make_policy()
        policy.compiled_index()
        policy.install_many(batch)
        twice = [rule for rule in policy.sorted_rules() if rule.rule_id == "twice"]
        assert twice == [batch[-1]]
        assert policy.rule_ids()[-1] == "twice"
        self.check(policy, flow_table(seed=24))


class TestRadixBinning:
    """Broad-prefix fallback rules are pre-filtered by top address bits."""

    def prefix_rules(self):
        return [
            # >= RADIX_BITS bits: all binned (dst column).
            QosRule(
                match=FlowMatch(dst_prefix=Prefix.parse("10.16.0.0/12"), src_port=123),
                action=FilterAction.DROP,
                rule_id="dst-12",
            ),
            QosRule(
                match=FlowMatch(dst_prefix=Prefix.parse("10.1.0.0/16"), src_port=53),
                action=FilterAction.DROP,
                rule_id="dst-16",
            ),
            QosRule(
                match=FlowMatch(dst_prefix=Prefix.parse("198.51.100.0/24")),
                action=FilterAction.DROP,
                rule_id="dst-24",
            ),
            # Broad src prefix: binned on the src column.
            QosRule(
                match=FlowMatch(src_prefix=Prefix.parse("203.0.0.0/16")),
                action=FilterAction.DROP,
                rule_id="src-16",
            ),
            # /8 is wider than a radix bin: stays unbinned.
            QosRule(
                match=FlowMatch(dst_prefix=Prefix.parse("10.0.0.0/8"), src_port=19),
                action=FilterAction.DROP,
                rule_id="dst-8",
            ),
            # MAC-only and catch-all: no prefix to bin on.
            QosRule(
                match=FlowMatch(src_mac=derived_mac(65002)),
                action=FilterAction.DROP,
                rule_id="mac-only",
            ),
            QosRule(match=FlowMatch(), action=FilterAction.FORWARD, rule_id="catch-all"),
        ]

    def test_binned_rule_count(self):
        policy = make_policy(self.prefix_rules())
        index = policy.compiled_index()
        # dst-12, dst-16, dst-24, src-16 are binned; dst-8, mac-only and
        # catch-all run over the full interval.
        assert index.radix_binned_rule_count == 4
        assert index.fallback_rule_count == 7

    def test_describe_keys_are_stable(self):
        # describe() feeds golden-digested experiment payloads: the key
        # set must not grow with new internals.
        index = RuleMatchIndex(self.prefix_rules())
        assert set(index.describe()) == {
            "rules",
            "exact_rules",
            "fallback_rules",
            "exact_groups",
            "fallback_groups",
        }

    @pytest.mark.parametrize("seed", [51, 52, 53])
    def test_radix_parity_with_per_rule(self, seed):
        table = flow_table(seed=seed, in_prefix_fraction=0.4)
        policy = make_policy(self.prefix_rules())
        indexed = policy.compiled_index().assign(table)
        assert np.array_equal(indexed, assign(policy, table))
        assert (indexed >= 0).all()  # catch-all claims the rest

    def test_bin_boundary_addresses(self):
        # Addresses straddling a radix-bin edge (the /12 boundary at
        # 10.16.0.0 and 10.31.255.255 vs 10.32.0.0) must land exactly as
        # the naive per-rule reference decides.
        edge_ips = [
            "10.15.255.255",
            "10.16.0.0",
            "10.31.255.255",
            "10.32.0.0",
            "198.51.100.7",
            "198.51.101.7",
        ]
        n = len(edge_ips)
        table = FlowTable(
            src_ip=np.full(n, ip_to_int("203.0.5.5"), dtype=np.uint32),
            dst_ip=np.array([ip_to_int(ip) for ip in edge_ips], dtype=np.uint32),
            protocol=np.full(n, 17, dtype=np.uint8),
            src_port=np.full(n, 123, dtype=np.int32),
            dst_port=np.full(n, 4000, dtype=np.int32),
            start=np.zeros(n),
            duration=np.full(n, 10.0),
            bytes=np.full(n, 1000, dtype=np.int64),
            packets=np.ones(n, dtype=np.int64),
            ingress_asn=np.full(n, 65001, dtype=np.int64),
            egress_asn=np.full(n, 64500, dtype=np.int64),
            is_attack=np.zeros(n, dtype=bool),
        )
        policy = make_policy(self.prefix_rules())
        assert np.array_equal(policy.compiled_index().assign(table), assign(policy, table))

    def test_mutations_recompile_radix_groups(self):
        policy = make_policy(self.prefix_rules())
        policy.install(
            QosRule(
                match=FlowMatch(dst_prefix=Prefix.parse("192.0.2.0/24")),
                action=FilterAction.DROP,
                rule_id="dst-24b",
            )
        )
        assert policy.compiled_index().radix_binned_rule_count == 5
        policy.remove("src-16")
        assert policy.compiled_index().radix_binned_rule_count == 4

    def test_deltas_recompile_radix_groups(self):
        rules = self.prefix_rules()
        base = RuleMatchIndex(rules)
        grown = base.with_installed(
            QosRule(
                match=FlowMatch(dst_prefix=Prefix.parse("192.0.2.0/24")),
                action=FilterAction.DROP,
                rule_id="dst-24b",
            ),
            0,
        )
        assert grown.radix_binned_rule_count == 5
        shrunk = grown.with_removed("src-16")
        assert shrunk.radix_binned_rule_count == 4


class TestDerivedMacMatching:
    """MAC rules against the ingress-derived MAC of each row.

    A row's MAC is ``derived_mac(asn)`` of its ingress member, which
    encodes ``asn & 0xFFFF``; ``FlowMatch.matches_table`` must agree with
    the oracle's scalar ``record_matches``, which formats and compares the
    MAC string itself.
    """

    #: 1, 65537 and 131073 share their low 16 bits (0x0001).
    ASNS = (1, 65001, 65537, 131073, 64500)

    def table(self, n=400, seed=21):
        return flow_table(n=n, seed=seed, ingress=self.ASNS)

    def per_record(self, match, table):
        return [record_matches(match, record) for record in to_records(table)]

    def test_four_byte_asns_sharing_low_bits_all_match(self):
        table = self.table()
        match = FlowMatch(src_mac=derived_mac(65537))
        mask = match.matches_table(table)
        low_one = np.isin(table.ingress_asn, [1, 65537, 131073])
        assert np.array_equal(mask, low_one)
        assert set(table.ingress_asn[mask].tolist()) == {1, 65537, 131073}
        assert mask.tolist() == self.per_record(match, table)

    def test_upper_case_target(self):
        table = self.table()
        match = FlowMatch(src_mac=derived_mac(65001).upper())
        mask = match.matches_table(table)
        assert np.array_equal(mask, table.ingress_asn == 65001)
        assert mask.tolist() == self.per_record(match, table)

    @pytest.mark.parametrize(
        "mac", ["02:00:aa:bb:fd:e9", "02:00:00:00:fd:e", "02:00:00:00:fd:e9:00", "x", ""]
    )
    def test_non_derived_mac_matches_no_row(self, mac):
        table = self.table()
        match = FlowMatch(src_mac=mac)
        assert not match.matches_table(table).any()
        assert not any(self.per_record(match, table))

    def test_empty_table(self):
        empty = self.table().select(np.zeros(0, dtype=np.int64))
        mask = FlowMatch(src_mac=derived_mac(65001)).matches_table(empty)
        assert mask.dtype == bool and mask.shape == (0,)

    @pytest.mark.parametrize("seed", [31, 32])
    def test_parity_with_reference(self, seed):
        targets = [
            derived_mac(1),
            derived_mac(131073).upper(),
            derived_mac(65001),
            "02:00:aa:bb:cc:dd",
        ]
        rules = [
            QosRule(match=FlowMatch(src_mac=mac), action=FilterAction.DROP, rule_id=f"mac-{i}")
            for i, mac in enumerate(targets)
        ]
        rules.append(
            QosRule(
                match=FlowMatch(
                    dst_prefix=Prefix.parse("10.1.0.0/16"), src_mac=derived_mac(64500)
                ),
                action=FilterAction.DROP,
                rule_id="mac-prefix",
            )
        )
        table = self.table(n=2000, seed=seed)
        policy = make_policy(rules)
        indexed = policy.compiled_index().assign(table)
        assert np.array_equal(indexed, assign(policy, table))
        assert len(np.unique(indexed)) >= 4
