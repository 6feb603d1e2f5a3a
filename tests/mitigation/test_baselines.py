"""Tests for the mitigation baselines (RTBH, ACL, Flowspec, scrubbing) and Table 1."""

import math

import pytest

from oracle.records import FiveTuple, FlowRecord, from_records
from repro.bgp import RouteServer, drop_rule, rate_limit_rule
from repro.core import BlackholingRule
from repro.mitigation import (
    AccessControlList,
    AclEntry,
    AclMitigation,
    CombinedMitigation,
    Dimension,
    FlowspecMitigation,
    FlowspecService,
    MitigationOutcome,
    Rating,
    RtbhMitigation,
    RtbhService,
    ScrubbingCenter,
    ScrubbingMitigation,
    build_comparison_table,
)
from repro.traffic import FlowTable, IpProtocol


def make_flow(src_port=123, dst_ip="100.10.10.10", ingress=65001, is_attack=True, bytes_=10_000,
              protocol=IpProtocol.UDP, start=0.0):
    return FlowRecord(
        key=FiveTuple("23.1.1.1", dst_ip, protocol, src_port, 40000),
        start=start,
        duration=10.0,
        bytes=bytes_,
        packets=10,
        ingress_member_asn=ingress,
        egress_member_asn=64500,
        is_attack=is_attack,
    )


def table_of(*flows):
    return from_records(flows)


class TestMitigationOutcome:
    def test_accounting_properties(self):
        outcome = MitigationOutcome(
            delivered_table=table_of(
                make_flow(is_attack=True), make_flow(is_attack=False, ingress=65002)
            ),
            discarded_table=table_of(make_flow(is_attack=False, ingress=65003)),
            shaped_table=table_of(make_flow(is_attack=True, ingress=65004)),
        )
        assert outcome.delivered_bits == 3 * 80_000
        assert outcome.discarded_bits == 80_000
        assert outcome.delivered_attack_bits == 2 * 80_000
        assert outcome.collateral_damage_bits == 80_000
        assert outcome.delivered_peers == {65001, 65002, 65004}

    def test_empty_table(self):
        outcome = AclMitigation().apply(FlowTable.empty(), 10.0)
        assert outcome.delivered_bits == 0.0
        assert outcome.delivered_peers == set()
        assert MitigationOutcome().discarded_bits == 0.0


def configured_strategies():
    """One configured instance of every strategy."""
    rtbh = RtbhService(ixp_asn=64700, compliance_rate=1.0, seed=1)
    rtbh.request_blackhole(64500, "100.10.10.10/32", peer_asns=[65001])
    flowspec = FlowspecService(acceptance_rate=1.0, seed=1)
    flowspec.announce_rule(
        rate_limit_rule("100.10.10.10/32", rate_bytes_per_second=100.0), peer_asns=[65001]
    )
    active_center = ScrubbingCenter(activation_delay_seconds=0.0)
    return {
        "rtbh": RtbhMitigation(rtbh),
        "acl": AclMitigation(),
        "flowspec": FlowspecMitigation(flowspec),
        "scrubbing": ScrubbingMitigation(active_center, seed=1),
        "combined": CombinedMitigation(
            [BlackholingRule.drop_udp_source_port(64500, "100.10.10.10/32", 123)],
            ScrubbingMitigation(active_center, seed=1),
        ),
    }


BAD_INTERVALS = [0.0, -1.0, math.nan, math.inf]


class TestIntervalValidation:
    # Before the shared check a zero interval made the scrubber discard
    # everything and Flowspec shape to zero, a negative one failed deep in
    # FlowTable.scaled, and NaN passed everywhere.
    @pytest.mark.parametrize("interval", BAD_INTERVALS)
    @pytest.mark.parametrize("strategy", sorted(configured_strategies()))
    def test_rejects_bad_interval(self, strategy, interval):
        mitigation = configured_strategies()[strategy]
        with pytest.raises(ValueError, match="interval"):
            mitigation.apply(table_of(make_flow(start=10.0)), interval)

    @pytest.mark.parametrize("interval", BAD_INTERVALS)
    def test_combined_detail_rejects_bad_interval(self, interval):
        combined = configured_strategies()["combined"]
        with pytest.raises(ValueError, match="interval"):
            combined.apply_detailed(table_of(make_flow()), interval)


class TestRtbhService:
    def test_compliance_rate_respected_statistically(self):
        service = RtbhService(ixp_asn=64700, compliance_rate=0.3, seed=1)
        honoring = sum(service.member_honors(65000 + i) for i in range(1000))
        assert 250 <= honoring <= 350

    def test_explicit_compliance_overrides(self):
        service = RtbhService(ixp_asn=64700, member_compliance={65001: True}, compliance_rate=0.0)
        assert service.member_honors(65001)
        assert not service.member_honors(65002)

    def test_request_blackhole_records_event(self):
        service = RtbhService(ixp_asn=64700, compliance_rate=1.0, seed=1)
        event = service.request_blackhole(64500, "100.10.10.10/32", peer_asns=[65001, 65002])
        assert event.honoring_members == {65001, 65002}
        assert service.event_for("100.10.10.10") is event
        assert service.event_for("100.10.10.11") is None

    def test_event_for_picks_most_specific(self):
        service = RtbhService(ixp_asn=64700, compliance_rate=1.0, seed=1)
        service.request_blackhole(64500, "100.10.10.0/24", peer_asns=[65001])
        specific = service.request_blackhole(64500, "100.10.10.10/32", peer_asns=[65001])
        assert service.event_for("100.10.10.10") is specific

    def test_withdraw_blackhole(self):
        service = RtbhService(ixp_asn=64700, compliance_rate=1.0, seed=1)
        service.request_blackhole(64500, "100.10.10.10/32", peer_asns=[65001])
        assert service.withdraw_blackhole(64500, "100.10.10.10/32")
        assert not service.withdraw_blackhole(64500, "100.10.10.10/32")
        assert service.active_events() == []

    def test_route_server_integration_rewrites_next_hop(self):
        server = RouteServer(ixp_asn=64700)
        for asn in (64500, 65001):
            server.connect_member(asn)
        service = RtbhService(ixp_asn=64700, route_server=server, compliance_rate=1.0, seed=1)
        service.request_blackhole(64500, "100.10.10.10/32", peer_asns=[65001])
        update = server.session_for(65001).history[-1]
        assert update.announcements[0].attributes.next_hop == server.blackhole_next_hop

    def test_invalid_compliance_rate(self):
        with pytest.raises(ValueError):
            RtbhService(ixp_asn=1, compliance_rate=1.5)


class TestRtbhMitigation:
    def test_only_honoring_peers_are_filtered(self):
        service = RtbhService(
            ixp_asn=64700, member_compliance={65001: True, 65002: False}, compliance_rate=0.0
        )
        service.request_blackhole(64500, "100.10.10.10/32", peer_asns=[65001, 65002])
        mitigation = RtbhMitigation(service)
        flows = table_of(make_flow(ingress=65001), make_flow(ingress=65002))
        outcome = mitigation.apply(flows, interval=10.0)
        assert outcome.discarded_table.ingress_asn.tolist() == [65001]

    def test_rtbh_drops_legitimate_traffic_too(self):
        service = RtbhService(ixp_asn=64700, compliance_rate=1.0, seed=1)
        service.request_blackhole(64500, "100.10.10.10/32", peer_asns=[65001])
        outcome = RtbhMitigation(service).apply(
            table_of(make_flow(ingress=65001, is_attack=False, src_port=443)), interval=10.0
        )
        assert outcome.collateral_damage_bits > 0

    def test_traffic_to_other_destinations_untouched(self):
        service = RtbhService(ixp_asn=64700, compliance_rate=1.0, seed=1)
        service.request_blackhole(64500, "100.10.10.10/32", peer_asns=[65001])
        outcome = RtbhMitigation(service).apply(
            table_of(make_flow(dst_ip="100.10.10.99", ingress=65001)), interval=10.0
        )
        assert len(outcome.delivered_table) == 1


class TestAcl:
    def test_first_match_wins(self):
        acl = AccessControlList()
        acl.add(AclEntry(action="permit", src_port=123))
        acl.deny("100.10.10.10/32", src_port=123)
        flows = table_of(make_flow(), make_flow(src_port=53))
        assert acl.deny_mask(flows).tolist() == [False, False]
        acl.deny("100.10.10.10/32")
        assert acl.deny_mask(flows).tolist() == [False, True]

    def test_implicit_permit(self):
        assert AccessControlList().deny_mask(table_of(make_flow())).tolist() == [False]

    def test_entry_limit(self):
        acl = AccessControlList(max_entries=1)
        acl.deny("10.0.0.0/8")
        with pytest.raises(RuntimeError):
            acl.deny("11.0.0.0/8")

    def test_entry_validation(self):
        with pytest.raises(ValueError):
            AclEntry(action="block")
        with pytest.raises(ValueError):
            AclEntry(action="deny", src_port=99999)
        with pytest.raises(ValueError):
            AccessControlList(max_entries=0)

    def test_acl_mitigation_filters_matching_flows(self):
        acl = AccessControlList()
        acl.deny("100.10.10.10/32", protocol=IpProtocol.UDP, src_port=123)
        outcome = AclMitigation(acl).apply(
            table_of(make_flow(), make_flow(src_port=443, is_attack=False)), interval=10.0
        )
        assert outcome.discarded_table.src_port.tolist() == [123]
        assert outcome.delivered_table.src_port.tolist() == [443]

    def test_acl_entry_field_matching(self):
        entry = AclEntry(action="deny", protocol=IpProtocol.UDP, dst_port=40000)
        flows = table_of(make_flow(), make_flow(protocol=IpProtocol.TCP))
        assert entry.matches_table(flows).tolist() == [True, False]


class TestFlowspec:
    def test_acceptance_rate_and_budget(self):
        service = FlowspecService(acceptance_rate=1.0, per_peer_rule_budget=2, seed=1)
        rule = drop_rule("100.10.10.10/32", source_port=123)
        for _ in range(3):
            service.announce_rule(rule, peer_asns=[65001])
        installed = [rule for rule in service.installed_rules() if 65001 in rule.installing_peers]
        assert len(installed) == 2

    def test_non_accepting_peer_installs_nothing(self):
        service = FlowspecService(acceptance_rate=0.0, seed=1)
        installed = service.announce_rule(drop_rule("10.0.0.0/8"), peer_asns=[65001, 65002])
        assert installed.installing_peers == set()

    def test_mitigation_only_filters_installing_peers(self):
        service = FlowspecService(peer_acceptance={65001: True, 65002: False}, seed=1)
        service.announce_rule(
            drop_rule("100.10.10.10/32", source_port=123, ip_protocol=17),
            peer_asns=[65001, 65002],
        )
        outcome = FlowspecMitigation(service).apply(
            table_of(make_flow(ingress=65001), make_flow(ingress=65002)), interval=10.0
        )
        assert outcome.discarded_table.ingress_asn.tolist() == [65001]
        assert outcome.delivered_table.ingress_asn.tolist() == [65002]

    def test_rate_limit_rule_shapes(self):
        service = FlowspecService(peer_acceptance={65001: True}, seed=1)
        service.announce_rule(
            rate_limit_rule("100.10.10.10/32", rate_bytes_per_second=100.0, source_port=123),
            peer_asns=[65001],
        )
        outcome = FlowspecMitigation(service).apply(
            table_of(make_flow(bytes_=10_000)), interval=10.0
        )
        assert outcome.shaped_table.bytes.tolist() == [1000]

    def test_validation(self):
        with pytest.raises(ValueError):
            FlowspecService(acceptance_rate=2.0)
        with pytest.raises(ValueError):
            FlowspecService(per_peer_rule_budget=0)


class TestScrubbing:
    def test_not_effective_before_activation_delay(self):
        scrubbing = ScrubbingMitigation(
            ScrubbingCenter(activation_delay_seconds=300.0), active_since=0.0, seed=1
        )
        outcome = scrubbing.apply(table_of(make_flow(start=100.0)), interval=10.0)
        assert len(outcome.delivered_table) == 1
        assert len(outcome.discarded_table) == 0

    def test_removes_attack_traffic_after_activation(self):
        scrubbing = ScrubbingMitigation(
            ScrubbingCenter(
                true_positive_rate=1.0, false_positive_rate=0.0, activation_delay_seconds=0.0
            ),
            active_since=0.0,
            seed=1,
        )
        outcome = scrubbing.apply(
            table_of(make_flow(start=10.0), make_flow(start=10.0, is_attack=False, src_port=443)),
            interval=10.0,
        )
        assert outcome.discarded_table.is_attack.tolist() == [True]

    def test_capacity_overflow_shapes_delivered_traffic(self):
        center = ScrubbingCenter(
            capacity_bps=1000.0, true_positive_rate=0.0, false_positive_rate=0.0,
            activation_delay_seconds=0.0,
        )
        scrubbing = ScrubbingMitigation(center, active_since=0.0, seed=1)
        outcome = scrubbing.apply(table_of(make_flow(start=10.0, bytes_=100_000)), interval=10.0)
        assert len(outcome.shaped_table) == 1
        assert outcome.shaped_table.bits[0] <= 1000.0 * 10.0 + 1

    def test_cost_accounting(self):
        scrubbing = ScrubbingMitigation(seed=1)
        assert scrubbing.cost_of_interval(8e9) == pytest.approx(0.05)

    def test_center_validation(self):
        with pytest.raises(ValueError):
            ScrubbingCenter(capacity_bps=0)
        with pytest.raises(ValueError):
            ScrubbingCenter(true_positive_rate=1.5)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("capacity_bps", math.nan),
            ("activation_delay_seconds", math.nan),
            ("cost_per_scrubbed_gbyte", -0.01),
            ("cost_per_scrubbed_gbyte", math.nan),
        ],
    )
    def test_center_rejects_nan_and_negative_cost(self, field, value):
        # A NaN capacity used to read as unlimited (min(1.0, nan) == 1.0),
        # and a NaN delay made the scrubber never effective.
        with pytest.raises(ValueError, match=field):
            ScrubbingCenter(**{field: value})

    def test_unlimited_capacity_stays_legal(self):
        center = ScrubbingCenter(capacity_bps=math.inf, activation_delay_seconds=0.0)
        outcome = ScrubbingMitigation(center, seed=1).apply(
            table_of(make_flow(start=10.0, bytes_=100_000)), interval=10.0
        )
        assert len(outcome.shaped_table) == 0
        assert outcome.delivered_bits + outcome.discarded_bits == 800_000


class TestComparisonTable:
    def test_default_table_matches_paper(self):
        table = build_comparison_table()
        assert table.matches_paper()

    def test_advanced_blackholing_has_all_advantages(self):
        table = build_comparison_table()
        assert all(
            table.rating("Advanced Blackholing", dimension) is Rating.ADVANTAGE
            for dimension in Dimension
        )

    def test_rtbh_is_coarse_but_cheap(self):
        table = build_comparison_table()
        assert table.rating("RTBH", Dimension.GRANULARITY) is Rating.DISADVANTAGE
        assert table.rating("RTBH", Dimension.COSTS) is Rating.ADVANTAGE

    def test_table_from_instances_uses_declared_ratings(self):
        techniques = [RtbhMitigation(RtbhService(ixp_asn=1)), AclMitigation()]
        table = build_comparison_table(techniques)
        assert table.techniques == ("RTBH", "ACL filters")
        assert table.rating("RTBH", Dimension.COOPERATION) is Rating.DISADVANTAGE
