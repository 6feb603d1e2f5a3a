"""Tests for edge routers, hardware profiles and the switching fabric."""

import pytest

from fuzz.strategies import router_fabric
from oracle.records import FiveTuple, FlowRecord, from_records
from repro.bgp import Prefix
from repro.ixp import (
    EdgeRouter,
    FilterAction,
    FlowMatch,
    HardwareProfile,
    IxpMember,
    PortNotFoundError,
    QosRule,
    SwitchingFabric,
    TcamExhaustedError,
    l_ixp_edge_router_profile,
    small_ixp_edge_router_profile,
)
from repro.traffic import FlowTable, IpProtocol


def table(*flows):
    return from_records(flows)


def make_flow(dst_ip="100.10.10.10", egress=64500, bytes_=10_000, src_port=123):
    return FlowRecord(
        key=FiveTuple("23.1.1.1", dst_ip, IpProtocol.UDP, src_port, 40000),
        start=0.0,
        duration=10.0,
        bytes=bytes_,
        packets=10,
        ingress_member_asn=65001,
        egress_member_asn=egress,
        is_attack=True,
    )


def drop_rule(rule_id="r1", src_port=123):
    return QosRule(
        match=FlowMatch(
            dst_prefix=Prefix.parse("100.10.10.10/32"),
            protocol=IpProtocol.UDP,
            src_port=src_port,
        ),
        action=FilterAction.DROP,
        rule_id=rule_id,
    )


class TestHardwareProfiles:
    def test_l_ixp_profile_calibration(self):
        profile = l_ixp_edge_router_profile(port_count=350, parallel_rtbh_n=16)
        assert profile.mac_filter_capacity == int(5.0 * 350 * 16)
        assert profile.l3l4_criteria_capacity == int(1.9 * 350 * 16)
        assert profile.port_count == 350

    def test_profiles_make_components(self):
        profile = small_ixp_edge_router_profile()
        tcam = profile.make_tcam()
        assert tcam.mac_filter_capacity == profile.mac_filter_capacity

    def test_invalid_profile(self):
        with pytest.raises(ValueError):
            HardwareProfile(name="x", port_count=0, mac_filter_capacity=1, l3l4_criteria_capacity=1)


class TestEdgeRouter:
    def _router(self, ports=4):
        profile = HardwareProfile(
            name="test", port_count=ports, mac_filter_capacity=100, l3l4_criteria_capacity=100
        )
        return EdgeRouter("er-1", profile=profile)

    def test_connect_member_assigns_port(self):
        router = self._router()
        port = router_fabric(router).connect_member(IxpMember(asn=64500))
        assert router.member_count == 1
        assert router.port_for(64500) is port
        assert port.port_id == 1

    def test_connect_member_is_idempotent(self):
        fabric = router_fabric(self._router())
        member = IxpMember(asn=64500)
        assert fabric.connect_member(member) is fabric.connect_member(member)

    def test_fabric_reconnect_keeps_the_port(self):
        # On a 2-router PoP a second connect used to place a second port on
        # the other router, leaving an orphan port and counter row behind.
        fabric = SwitchingFabric()
        for name in ("er-1", "er-2"):
            fabric.add_edge_router(EdgeRouter(name, profile=small_ixp_edge_router_profile()))
        member = IxpMember(asn=64500)
        port = fabric.connect_member(member)
        assert fabric.connect_member(member) is port
        assert fabric.membership_version == 1
        assert [router.member_count for router in fabric.edge_routers()] == [1, 0]
        # One counter row was reserved: the next free slot is 1.
        assert fabric.port_counters.add_slots(0) == 1

    def test_port_limit(self):
        fabric = router_fabric(self._router(ports=1), IxpMember(asn=1))
        with pytest.raises(RuntimeError):
            fabric.connect_member(IxpMember(asn=2))

    def test_unknown_member_port_lookup(self):
        with pytest.raises(PortNotFoundError):
            self._router().port_for(9999)

    def test_install_rule_consumes_tcam(self):
        router = self._router()
        router_fabric(router, IxpMember(asn=64500))
        router.install_rule(64500, drop_rule())
        assert router.tcam.l3l4_criteria_used == 3
        assert router.config_operations == 1
        assert len(router.installed_rules()) == 1

    def test_remove_rule_releases_tcam(self):
        router = self._router()
        router_fabric(router, IxpMember(asn=64500))
        router.install_rule(64500, drop_rule())
        assert router.remove_rule(64500, "r1")
        assert router.tcam.l3l4_criteria_used == 0
        assert not router.remove_rule(64500, "r1")

    def test_reinstall_same_rule_id_does_not_leak_tcam(self):
        router = self._router()
        router_fabric(router, IxpMember(asn=64500))
        router.install_rule(64500, drop_rule())
        router.install_rule(64500, drop_rule(src_port=53))
        assert router.tcam.l3l4_criteria_used == 3
        assert len(router.port_for(64500).qos.rules()) == 1

    def test_install_fails_when_tcam_full(self):
        profile = HardwareProfile(
            name="tiny", port_count=4, mac_filter_capacity=1, l3l4_criteria_capacity=3
        )
        router = EdgeRouter("tiny", profile=profile)
        router_fabric(router, IxpMember(asn=64500))
        router.install_rule(64500, drop_rule("a"))
        with pytest.raises(TcamExhaustedError):
            router.install_rule(64500, drop_rule("b"))

    def test_a_refused_batch_replacement_leaves_what_single_installs_leave(self):
        # A and B share the id "x"; B replaces A inside the batch, then
        # the TCAM refuses B.  One-row installs remove A before refusing
        # B, so the batch must leave no "x" and nothing charged.
        tiny = HardwareProfile("tiny", 4, 4, 2)
        a = QosRule(match=FlowMatch(src_port=123), action=FilterAction.DROP, rule_id="x")
        b = QosRule(
            match=FlowMatch(
                dst_prefix=Prefix.parse("100.10.10.10/32"),
                protocol=IpProtocol.UDP,
                src_port=53,
            ),
            action=FilterAction.DROP,
            rule_id="x",
        )
        states = []
        for install in (
            lambda router: router.install_rules(64500, [a, b]),
            lambda router: [router.install_rule(64500, rule) for rule in (a, b)],
        ):
            router = EdgeRouter("tiny", profile=tiny)
            router_fabric(router, IxpMember(asn=64500))
            with pytest.raises(TcamExhaustedError) as refused:
                install(router)
            port = router.port_for(64500)
            states.append(
                (
                    port.qos.rules(),
                    router.tcam.usage_for_port(port.port_id),
                    router.installed_rules(),
                    router.config_operations,
                )
            )
            assert refused.value.installed == (1 if len(states) == 1 else 0)
        assert states[0] == states[1] == ([], (0, 0), [], 2)

    def test_removing_the_empty_id_changes_nothing(self):
        # Anonymous DROP rules carry the empty id, which names no rule:
        # removing it must neither drop them nor leave their TCAM charged.
        router = self._router()
        router_fabric(router, IxpMember(asn=64500))
        for src_port in (123, 53, 19):
            router.install_rule(
                64500, QosRule(match=FlowMatch(src_port=src_port), action=FilterAction.DROP)
            )
        port = router.port_for(64500)
        operations, version = router.config_operations, port.qos.rules_version
        assert router.remove_rule(64500, "") is False
        assert len(port.qos) == 3
        assert router.tcam.usage_for_port(port.port_id) == (0, 3)
        assert (router.config_operations, port.qos.rules_version) == (operations, version)
        assert router.clear_rules(64500) == 3
        assert router.tcam.usage_for_port(port.port_id) == (0, 0)

    def test_deliver_applies_port_policy(self):
        router = self._router()
        fabric = SwitchingFabric(name="test-ixp")
        fabric.add_edge_router(router)
        fabric.connect_member(IxpMember(asn=64500, port_capacity_bps=1e9))
        router.install_rule(64500, drop_rule())
        report = fabric.deliver(table(make_flow()), interval=10.0)
        assert report.results_by_member[64500].dropped_bits == 80_000


class TestSwitchingFabric:
    def _fabric(self, retain_reports=False):
        fabric = SwitchingFabric(
            name="test-ixp", platform_capacity_bps=1e12, retain_reports=retain_reports
        )
        fabric.add_edge_router(EdgeRouter("er-1", profile=small_ixp_edge_router_profile()))
        return fabric

    def test_requires_router_before_members(self):
        with pytest.raises(RuntimeError):
            SwitchingFabric().connect_member(IxpMember(asn=1))

    def test_duplicate_router_name_rejected(self):
        fabric = self._fabric()
        with pytest.raises(ValueError):
            fabric.add_edge_router(EdgeRouter("er-1"))

    def test_connect_and_lookup_member(self):
        fabric = self._fabric()
        member = IxpMember(asn=64500)
        fabric.connect_member(member)
        assert fabric.member(64500) is member
        assert fabric.member_asns == {64500}
        assert fabric.router_for_member(64500).name == "er-1"
        assert fabric.port_for_member(64500).asn == 64500

    def test_unknown_member_lookups_raise(self):
        fabric = self._fabric()
        with pytest.raises(KeyError):
            fabric.member(1)
        with pytest.raises(PortNotFoundError):
            fabric.router_for_member(1)

    def test_members_balance_across_routers(self):
        fabric = self._fabric()
        fabric.add_edge_router(EdgeRouter("er-2", profile=small_ixp_edge_router_profile()))
        for i in range(4):
            fabric.connect_member(IxpMember(asn=65000 + i))
        counts = [len(router.member_asns) for router in fabric.edge_routers()]
        assert sorted(counts) == [2, 2]

    def test_pop_affinity(self):
        fabric = self._fabric()
        fabric.add_edge_router(
            EdgeRouter("er-fra2", profile=small_ixp_edge_router_profile(), pop="pop-2")
        )
        fabric.connect_member(IxpMember(asn=65001, pop="pop-2"))
        assert fabric.router_for_member(65001).pop == "pop-2"

    def test_connected_capacity(self):
        fabric = self._fabric()
        fabric.connect_member(IxpMember(asn=1, port_capacity_bps=10e9))
        fabric.connect_member(IxpMember(asn=2, port_capacity_bps=100e9))
        assert fabric.connected_capacity_bps == 110e9

    def test_deliver_groups_by_egress_member(self):
        fabric = self._fabric(retain_reports=True)
        fabric.connect_member(IxpMember(asn=64500, port_capacity_bps=1e9))
        fabric.connect_member(IxpMember(asn=64501, port_capacity_bps=1e9))
        flows = [make_flow(egress=64500), make_flow(egress=64501), make_flow(egress=9999)]
        report = fabric.deliver(table(*flows), interval=10.0, interval_start=0.0)
        assert set(report.results_by_member) == {64500, 64501}
        assert report.offered_bits == 160_000
        assert report.delivered_bits == 160_000
        assert fabric.reports == [report]

    def test_deliver_with_installed_rule_filters(self):
        fabric = self._fabric()
        fabric.connect_member(IxpMember(asn=64500, port_capacity_bps=1e9))
        fabric.router_for_member(64500).install_rule(64500, drop_rule())
        report = fabric.deliver(table(make_flow()), interval=10.0)
        assert report.filtered_bits == 80_000
        assert report.delivered_bits == 0

    def test_ipfix_collection(self):
        fabric = self._fabric()
        fabric.connect_member(IxpMember(asn=64500))
        fabric.deliver(table(make_flow()), interval=10.0)
        assert len(fabric.collector) == 1

    def test_platform_overload_detection(self):
        fabric = SwitchingFabric(platform_capacity_bps=1000.0)
        fabric.add_edge_router(EdgeRouter("er", profile=small_ixp_edge_router_profile()))
        fabric.connect_member(IxpMember(asn=64500, port_capacity_bps=1e9))
        report = fabric.deliver(table(make_flow(bytes_=10_000_000)), interval=10.0)
        assert report.platform_load_bps > fabric.platform_capacity_bps

    def test_invalid_platform_capacity(self):
        with pytest.raises(ValueError):
            SwitchingFabric(platform_capacity_bps=0)

    def test_deliver_invalid_interval(self):
        with pytest.raises(ValueError):
            self._fabric().deliver(FlowTable.empty(), interval=0)

    def test_deliver_takes_a_flow_table_only(self):
        with pytest.raises(TypeError):
            self._fabric().deliver([make_flow()], interval=10.0)


class TestMultiPopTopology:
    def test_build_multi_pop_fabric_layout(self):
        from repro.ixp import build_multi_pop_fabric

        fabric = build_multi_pop_fabric(pop_count=3, routers_per_pop=2)
        routers = fabric.edge_routers()
        assert len(routers) == 6
        assert {router.pop for router in routers} == {"pop-1", "pop-2", "pop-3"}
        assert routers[0].name == "edge-1-1"

    def test_invalid_layout_rejected(self):
        from repro.ixp import build_multi_pop_fabric

        with pytest.raises(ValueError):
            build_multi_pop_fabric(pop_count=0)

    def test_member_population_mix_and_placement(self):
        from repro.ixp import (
            PortSpeedMix,
            build_multi_pop_fabric,
            make_member_population,
        )

        mix = PortSpeedMix(speeds_bps=(1e9, 10e9), weights=(0.5, 0.5))
        members = make_member_population(
            200, pop_count=4, port_mix=mix, honors_rtbh_fraction=0.3, seed=3
        )
        assert len(members) == 200
        assert {member.port_capacity_bps for member in members} <= {1e9, 10e9}
        assert {member.pop for member in members} == {
            "pop-1", "pop-2", "pop-3", "pop-4",
        }
        honoring = sum(member.honors_rtbh for member in members)
        assert 30 <= honoring <= 90  # ~30 % of 200, seeded

        fabric = build_multi_pop_fabric(pop_count=4, routers_per_pop=2)
        for member in members:
            fabric.connect_member(member)
        # PoP affinity: every member landed on a router in its own PoP.
        for member in members:
            assert fabric.router_for_member(member.asn).pop == member.pop

    def test_member_population_is_deterministic_per_seed(self):
        from repro.ixp import make_member_population

        a = make_member_population(50, seed=9)
        b = make_member_population(50, seed=9)
        assert [(m.asn, m.port_capacity_bps, m.pop, m.honors_rtbh) for m in a] == [
            (m.asn, m.port_capacity_bps, m.pop, m.honors_rtbh) for m in b
        ]

    def test_port_speed_mix_validation(self):
        from repro.ixp import PortSpeedMix

        with pytest.raises(ValueError):
            PortSpeedMix(speeds_bps=(1e9,), weights=(0.5, 0.5))
        with pytest.raises(ValueError):
            PortSpeedMix(speeds_bps=(-1e9,), weights=(1.0,))
        with pytest.raises(ValueError):
            PortSpeedMix(speeds_bps=(1e9,), weights=(0.0,))
