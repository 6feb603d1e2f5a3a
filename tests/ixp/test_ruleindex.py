"""The compiled rule-match index: signatures, parity, caching, shapers.

The index must be *verdict-for-verdict* equal to the naive per-rule first
match of ``tests/oracle`` — ``assign_table`` rank arrays identical — and
the fabric's accounting on top of it bit-for-bit the reference's.  These tests pin that across mixed
signature groups (exact host rules, broader prefixes shadowing them,
MAC-match rules forcing the fallback path, precedence ties), plus the
rule-set version counter that keeps the cached index (and the fabric's
cached delivery plan) invalidation-safe, and the anonymous-shape-rule
shaper fix.
"""

import numpy as np
import pytest

from fuzz.strategies import single_port_fabric
from oracle.reference import ReferenceFabric, assign
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


def flow_table(n=2000, seed=5, egress=64500, in_prefix_fraction=0.6):
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
        ingress_asn=rng.choice([65001, 65002, 65003], size=n),
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
        indexed = policy.assign_table(table)
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
            assert np.array_equal(policy.assign_table(table), assign(policy, table))

    def test_full_apply_bit_for_bit(self):
        table = flow_table(seed=8)
        fabric, _ = make_fabric()
        oracle = ReferenceFabric(fabric)
        report = fabric.deliver(table, 10.0)
        assert report.results_by_member[64500].rule_stats  # rules matched something
        assert report.to_dict() == oracle.deliver(table, 10.0)
        result = report.results_by_member[64500]
        forwarded, dropped, shaped = oracle.verdicts[64500]
        assert (result.forwarded, result.dropped, result.shaped) == (forwarded, dropped, shaped)

    def test_apply_matches_record_path(self):
        """Record input (via FlowTable.from_records) equals columnar input."""
        table = flow_table(n=400, seed=9)
        from_records = FlowTable.from_records(table.to_records())
        expected = ReferenceFabric(make_fabric()[0]).deliver(table, 10.0)
        assert make_fabric()[0].deliver(table, 10.0).to_dict() == expected
        assert make_fabric()[0].deliver(from_records, 10.0).to_dict() == expected


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
        for ranks in (policy.assign_table(ntp_host), assign(policy, ntp_host)):
            assert all(rules[r].rule_id == "exact-ntp" for r in ranks.tolist())
        # NTP flows to other 10.1/16 hosts fall through to the prefix
        # rule (regardless of protocol: the prefix rule matches any).
        other = table.select(
            (table.dst_ip == ip_to_int("10.1.0.5")) & (table.src_port == 123)
        )
        assert len(other)
        for ranks in (policy.assign_table(other), assign(policy, other)):
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
        for ranks in (policy.assign_table(sub), assign(policy, sub)):
            assert all(sorted_rules[r].rule_id == "mac-udp-host" for r in ranks.tolist())

    def test_specificity_tie_keeps_install_order(self):
        # Two identical matches, different ids: the earliest install wins.
        rule_a = host_drop("10.1.0.1", 123, "first")
        rule_b = host_drop("10.1.0.1", 123, "second")
        table = flow_table(seed=6)
        policy = make_policy([rule_a, rule_b])
        rules = policy.sorted_rules()
        for ranks in (policy.assign_table(table), assign(policy, table)):
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
        policy.assign_table(flow_table(n=50))
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
        during = deliver(fabric, table)
        assert during.dropped_bits > 0.0
        assert during.rule_stats["mid"]["dropped"] == during.dropped_bits
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
        assert np.array_equal(bulk.assign_table(table), sequential.assign_table(table))


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
        result = deliver(fabric, table, interval)
        shaped = {
            rule_id: stats["shaped"] for rule_id, stats in result.rule_stats.items()
        }
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
        result = deliver(fabric, flow_table(n=500, seed=31))
        assert result.dropped_bits > 0
        assert "" in result.rule_stats


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
        result = deliver(fabric, flow_table(n=500, seed=40))
        assert set(result.rule_stats) <= {"r0", "r1"}

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


class TestIncrementalDeltas:
    """with_installed / with_removed vs a from-scratch compile.

    The delta ops must be *structurally* identical to recompiling the
    new rule list — same keys and ranks per signature group — not just
    verdict-equal, because a mis-spliced group can hide behind rules
    that never claim rows.
    """

    def scratch(self, rules):
        return RuleMatchIndex(rules).structure()

    def test_install_at_every_rank_matches_scratch(self):
        rules = mixed_rules()
        base = RuleMatchIndex(rules)
        newcomer = host_drop("10.1.0.77", 19, "newcomer")
        for rank in range(len(rules) + 1):
            patched = base.with_installed(newcomer, rank)
            expected = rules[:rank] + [newcomer] + rules[rank:]
            assert patched.structure() == self.scratch(expected), rank

    def test_install_default_rank_appends(self):
        rules = mixed_rules()
        newcomer = host_drop("10.1.0.77", 19, "newcomer")
        patched = RuleMatchIndex(rules).with_installed(newcomer)
        assert patched.structure() == self.scratch(rules + [newcomer])

    def test_install_fallback_rule_matches_scratch(self):
        rules = mixed_rules()
        base = RuleMatchIndex(rules)
        broad = QosRule(
            match=FlowMatch(dst_prefix=Prefix.parse("10.2.0.0/16"), src_port=53),
            action=FilterAction.DROP,
            rule_id="broad-dns",
        )
        for rank in (0, 3, len(rules)):
            patched = base.with_installed(broad, rank)
            expected = rules[:rank] + [broad] + rules[rank:]
            assert patched.structure() == self.scratch(expected), rank

    def test_remove_each_rule_matches_scratch(self):
        rules = mixed_rules()
        base = RuleMatchIndex(rules)
        for rank, rule in enumerate(rules):
            patched = base.with_removed(rule.rule_id, rank)
            expected = rules[:rank] + rules[rank + 1 :]
            assert patched.structure() == self.scratch(expected), rule.rule_id

    def test_remove_by_id_finds_rank(self):
        rules = mixed_rules()
        patched = RuleMatchIndex(rules).with_removed("mac-peer")
        expected = [rule for rule in rules if rule.rule_id != "mac-peer"]
        assert patched.structure() == self.scratch(expected)

    def test_duplicate_exact_keys_survive_removal(self):
        # Two rules with an identical packed key: removing one must leave
        # the other in the group (the compile keeps duplicates precisely
        # so the delta ops stay splice-exact).
        rules = [
            host_drop("10.1.0.1", 123, "first"),
            host_drop("10.1.0.1", 123, "second"),
        ]
        patched = RuleMatchIndex(rules).with_removed("first", 0)
        assert patched.structure() == self.scratch([rules[1]])
        table = flow_table(seed=6)
        hits = patched.assign(table)
        assert (hits[hits >= 0] == 0).all()

    def test_delta_ops_leave_the_base_untouched(self):
        rules = mixed_rules()
        base = RuleMatchIndex(rules)
        before = base.structure()
        base.with_installed(host_drop("10.1.0.9", 53, "x"), 0)
        base.with_removed("catch-all")
        assert base.structure() == before

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
        assert index.structure() == self.scratch(rules)

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


class TestJournalledCompile:
    """PortQosPolicy.compiled_index() patches the cached snapshot."""

    def scratch(self, policy):
        return RuleMatchIndex(policy.sorted_rules()).structure()

    def test_single_mutations_patch_the_snapshot(self):
        policy = make_policy()
        assert policy.compiled_index().structure() == self.scratch(policy)
        policy.install(host_drop("10.1.0.50", 19, "late"))
        assert policy.compiled_index().structure() == self.scratch(policy)
        policy.remove("prefix-ntp")
        assert policy.compiled_index().structure() == self.scratch(policy)
        policy.install(host_drop("10.1.0.1", 123, "exact-ntp"))  # replace
        assert policy.compiled_index().structure() == self.scratch(policy)

    def test_batch_below_limit_journals_deltas(self):
        policy = make_policy()
        policy.compiled_index()
        batch = [host_drop(f"10.1.1.{i}", 53, f"b{i}") for i in range(5)]
        policy.install_many(batch)
        assert policy.compiled_index().structure() == self.scratch(policy)

    def test_large_batch_falls_back_to_full_compile(self):
        from repro.ixp.qos import _BATCH_DELTA_LIMIT

        policy = make_policy()
        policy.compiled_index()
        batch = [
            host_drop(f"10.1.{i // 200}.{i % 200}", 53, f"big{i}")
            for i in range(_BATCH_DELTA_LIMIT + 1)
        ]
        policy.install_many(batch)
        assert policy.compiled_index().structure() == self.scratch(policy)

    def test_truncated_journal_falls_back_to_full_compile(self):
        from repro.ixp.qos import _JOURNAL_LIMIT

        policy = make_policy()
        policy.compiled_index()
        # More mutations than the journal retains, with no compile in
        # between: the cached snapshot is older than the journal base,
        # so compiled_index() must recompile from scratch.
        for i in range(_JOURNAL_LIMIT + 8):
            policy.install(host_drop(f"10.1.{i // 200}.{i % 200}", 19, f"churn{i}"))
        assert policy.compiled_index().structure() == self.scratch(policy)

    def test_clear_resets_and_recompiles(self):
        policy = make_policy()
        policy.compiled_index()
        policy.clear()
        index = policy.compiled_index()
        assert index.rule_count == 0
        assert index.structure() == self.scratch(policy)

    def test_patched_index_classifies_identically(self):
        table = flow_table(seed=17)
        warm = make_policy()
        warm.compiled_index()  # warm snapshot, mutations below patch it
        cold = make_policy()
        for policy in (warm, cold):
            policy.install(host_drop("10.1.0.40", 123, "late"))
            policy.remove("exact-dns")
        assert np.array_equal(warm.assign_table(table), cold.assign_table(table))


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
        indexed = policy.assign_table(table)
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
        assert np.array_equal(policy.assign_table(table), assign(policy, table))

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
