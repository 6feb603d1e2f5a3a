"""Integration tests for the signaling layer, telemetry and the Stellar facade."""

import pytest

from repro.bgp import ImportPolicy
from repro.core import (
    BlackholingRule,
    RuleAction,
    RuleTelemetry,
    SignalRejectedError,
    Stellar,
    TelemetryCollector,
)
from repro.ixp import EdgeRouter, IxpMember, SwitchingFabric, small_ixp_edge_router_profile
from repro.traffic import BenignTrafficSource, BooterAttack, FlowTable

IXP_ASN = 64700
VICTIM_ASN = 64500
VICTIM_IP = "100.10.10.10"


def build_stellar(policy=None, peer_count=5, victim_capacity=1e9):
    fabric = SwitchingFabric()
    fabric.add_edge_router(EdgeRouter("er-1", profile=small_ixp_edge_router_profile()))
    stellar = Stellar(ixp_asn=IXP_ASN, fabric=fabric, policy=policy)
    victim = IxpMember(
        asn=VICTIM_ASN, port_capacity_bps=victim_capacity, prefixes=["100.10.10.0/24"]
    )
    peers = [IxpMember(asn=65000 + i) for i in range(peer_count)]
    stellar.add_member(victim)
    stellar.add_members(peers)
    return stellar, victim, peers


def attack_flows(peers, t=0.0, interval=10.0, rate=5e8, seed=1):
    attack = BooterAttack(
        victim_ip=VICTIM_IP,
        victim_member_asn=VICTIM_ASN,
        peer_member_asns=[peer.asn for peer in peers],
        peak_rate_bps=rate,
        start=0.0,
        duration=1e6,
        ramp_seconds=0.0,
        seed=seed,
    )
    return attack.flow_table(t, interval)


def benign_flows(peers, t=0.0, interval=10.0, rate=1e8, seed=2):
    benign = BenignTrafficSource(
        dst_ip=VICTIM_IP,
        egress_member_asn=VICTIM_ASN,
        ingress_member_asns=[peer.asn for peer in peers],
        rate_bps=rate,
        seed=seed,
    )
    return benign.flow_table(t, interval)


class TestSignaling:
    def test_bgp_signal_reaches_controller_and_dataplane(self):
        stellar, victim, peers = build_stellar()
        rule = BlackholingRule.drop_udp_source_port(VICTIM_ASN, f"{VICTIM_IP}/32", 123)
        result = stellar.request_mitigation(rule, via="bgp")
        assert result.accepted and result.via == "bgp"
        assert len(stellar.active_rules()) == 1
        stellar.process_control_plane(now=1.0)
        assert stellar.installed_rule_count() == 1

    def test_api_signal_path(self):
        stellar, victim, peers = build_stellar()
        rule = BlackholingRule.drop_udp_source_port(VICTIM_ASN, f"{VICTIM_IP}/32", 123)
        result = stellar.request_mitigation(rule, via="api")
        assert result.accepted and result.via == "api"
        stellar.process_control_plane(now=1.0)
        assert stellar.installed_rule_count() == 1

    def test_unknown_signalling_path_rejected(self):
        stellar, victim, peers = build_stellar()
        rule = BlackholingRule.drop_all(VICTIM_ASN, f"{VICTIM_IP}/32")
        with pytest.raises(ValueError):
            stellar.request_mitigation(rule, via="carrier-pigeon")

    def test_predefined_rule_signalling(self):
        stellar, victim, peers = build_stellar()
        result = stellar.request_predefined_mitigation(VICTIM_ASN, f"{VICTIM_IP}/32", 1)
        assert result.accepted
        assert stellar.active_rules()[0].src_port == 123

    def test_irr_authorisation_enforced(self):
        policy = ImportPolicy()
        policy.irr.register("100.10.10.0/24", VICTIM_ASN)
        stellar, victim, peers = build_stellar(policy=policy)
        # The victim may blackhole inside its registered prefix ...
        ok = stellar.request_mitigation(
            BlackholingRule.drop_udp_source_port(VICTIM_ASN, f"{VICTIM_IP}/32", 123)
        )
        assert ok.accepted
        # ... but another member may not blackhole the victim's space.
        with pytest.raises(SignalRejectedError):
            stellar.request_mitigation(
                BlackholingRule.drop_udp_source_port(65001, f"{VICTIM_IP}/32", 123)
            )

    def test_api_signal_authorisation(self):
        policy = ImportPolicy()
        policy.irr.register("100.10.10.0/24", VICTIM_ASN)
        stellar, victim, peers = build_stellar(policy=policy)
        with pytest.raises(SignalRejectedError):
            stellar.request_mitigation(
                BlackholingRule.drop_all(65001, f"{VICTIM_IP}/32"), via="api"
            )

    def test_withdraw_removes_rule_from_dataplane(self):
        stellar, victim, peers = build_stellar()
        rule = BlackholingRule.drop_udp_source_port(VICTIM_ASN, f"{VICTIM_IP}/32", 123)
        stellar.request_mitigation(rule)
        stellar.process_control_plane(now=1.0)
        assert stellar.installed_rule_count() == 1
        stellar.withdraw_mitigation(VICTIM_ASN, f"{VICTIM_IP}/32")
        stellar.process_control_plane(now=2.0)
        assert stellar.installed_rule_count() == 0
        assert stellar.active_rules() == []

    def test_signal_not_reflected_to_other_members(self):
        stellar, victim, peers = build_stellar()
        rule = BlackholingRule.drop_udp_source_port(VICTIM_ASN, f"{VICTIM_IP}/32", 123)
        stellar.request_mitigation(rule, via="bgp")
        for peer in peers:
            session = stellar.route_server.session_for(peer.asn)
            assert session.updates_received == 0

    def test_time_cannot_move_backwards(self):
        stellar, victim, peers = build_stellar()
        stellar.advance_to(10.0)
        with pytest.raises(ValueError):
            stellar.advance_to(5.0)


class TestStellarDataPlane:
    def test_drop_rule_filters_attack_but_not_benign(self):
        stellar, victim, peers = build_stellar(victim_capacity=10e9)
        rule = BlackholingRule.drop_udp_source_port(VICTIM_ASN, f"{VICTIM_IP}/32", 123)
        stellar.request_mitigation(rule)
        stellar.process_control_plane(now=0.0)
        flows = FlowTable.concat([attack_flows(peers), benign_flows(peers)])
        report = stellar.deliver_traffic(flows, interval=10.0, interval_start=0.0)
        forwarded = report.fabric_report.results_by_member[VICTIM_ASN].forwarded_table
        delivered_attack = int(forwarded.bytes[forwarded.is_attack].sum())
        delivered_benign = int(forwarded.bytes[~forwarded.is_attack].sum())
        assert delivered_attack == 0
        assert delivered_benign > 0
        assert report.filtered_bits > 0

    def test_without_mitigation_port_congests(self):
        stellar, victim, peers = build_stellar(victim_capacity=1e8)
        flows = attack_flows(peers, rate=1e9)
        report = stellar.deliver_traffic(flows, interval=10.0, interval_start=0.0)
        result = report.fabric_report.results_by_member[VICTIM_ASN]
        assert result.congestion_dropped_bits > 0
        assert result.delivered_bits == pytest.approx(1e8 * 10.0, rel=0.01)

    def test_shape_rule_limits_attack_rate(self):
        stellar, victim, peers = build_stellar(victim_capacity=10e9)
        rule = BlackholingRule.shape_udp_source_port(
            VICTIM_ASN, f"{VICTIM_IP}/32", 123, rate_bps=1e8
        )
        stellar.request_mitigation(rule)
        stellar.process_control_plane(now=0.0)
        flows = attack_flows(peers, rate=1e9)
        report = stellar.deliver_traffic(flows, interval=10.0, interval_start=0.0)
        result = report.fabric_report.results_by_member[VICTIM_ASN]
        assert result.shaped_passed_bits == pytest.approx(1e8 * 10.0, rel=0.05)

    def test_rule_change_queue_throttles_deployment(self):
        # The paper's change queue: a burst of 10, then 4.33 changes/s.
        fabric = SwitchingFabric()
        fabric.add_edge_router(EdgeRouter("er-1", profile=small_ixp_edge_router_profile()))
        stellar = Stellar(ixp_asn=IXP_ASN, fabric=fabric)
        stellar.add_member(IxpMember(asn=VICTIM_ASN, prefixes=["100.10.10.0/24"]))
        for port in range(1, 13):
            stellar.request_mitigation(
                BlackholingRule.drop_udp_source_port(VICTIM_ASN, f"{VICTIM_IP}/32", port), via="api"
            )
        installed = []
        for now in (0.0, 0.2, 0.25, 0.5):
            stellar.process_control_plane(now=now)
            installed.append(stellar.installed_rule_count())
        assert installed == [10, 10, 11, 12]

    def test_telemetry_reports_matched_traffic(self):
        stellar, victim, peers = build_stellar(victim_capacity=10e9)
        rule = BlackholingRule.drop_udp_source_port(VICTIM_ASN, f"{VICTIM_IP}/32", 123)
        stellar.request_mitigation(rule)
        stellar.process_control_plane(now=0.0)
        flows = attack_flows(peers)
        stellar.deliver_traffic(flows, interval=10.0, interval_start=0.0)
        report = stellar.telemetry_report(VICTIM_ASN)
        assert report.active_rule_count == 1
        assert report.total_filtered_bits > 0
        rule_telemetry = report.rules[0]
        assert rule_telemetry.matched_bits > 0
        assert not rule_telemetry.attack_appears_over

    def test_telemetry_detects_attack_end(self):
        stellar, victim, peers = build_stellar(victim_capacity=10e9)
        rule = BlackholingRule.drop_udp_source_port(VICTIM_ASN, f"{VICTIM_IP}/32", 123)
        stellar.request_mitigation(rule)
        stellar.process_control_plane(now=0.0)
        stellar.deliver_traffic(attack_flows(peers), interval=10.0, interval_start=0.0)
        # Next interval: only benign traffic — the rule matches nothing.
        stellar.deliver_traffic(benign_flows(peers, t=10.0), interval=10.0, interval_start=10.0)
        installed_rule_id = stellar.active_rules()[0].rule_id
        telemetry = stellar.telemetry.telemetry_for_rule(installed_rule_id)
        assert telemetry is not None
        # No new sample was appended for the second interval (nothing matched),
        # so the latest matched-rate sample is still from the attack interval.
        report = stellar.telemetry_report(VICTIM_ASN)
        assert report.total_shaped_passed_bits == 0

    def test_interval_report_properties(self):
        stellar, victim, peers = build_stellar()
        report = stellar.deliver_traffic(benign_flows(peers), interval=10.0, interval_start=0.0)
        assert report.delivered_bits > 0
        assert report.filtered_bits == 0
        assert report.deployments == []

    def test_deliver_traffic_takes_a_flow_table_only(self):
        stellar, victim, peers = build_stellar()
        with pytest.raises(TypeError, match="FlowTable"):
            stellar.deliver_traffic([], interval=10.0, interval_start=5.0)
        # Rejected before the interval moves the clock.
        assert stellar.now == 0.0


class TestTelemetryCollector:
    def test_record_rule_interval_accumulates(self):
        collector = TelemetryCollector()
        collector.record_rule_interval("r1", 64500, 1000.0, 1000.0, 0.0, interval=10.0, time=0.0)
        collector.record_rule_interval("r1", 64500, 500.0, 500.0, 0.0, interval=10.0, time=10.0)
        telemetry = collector.telemetry_for_rule("r1")
        assert telemetry.matched_bits == 1500.0
        assert telemetry.dropped_bits == 1500.0
        assert len(telemetry.samples) == 2
        assert telemetry.matched_rate_bps(10.0) == 50.0

    def test_matched_rate_uses_the_queried_interval(self):
        # Regression: the interval argument used to be ignored — the
        # method returned the last sample verbatim regardless of the
        # observation interval the caller reported over.
        collector = TelemetryCollector()
        collector.record_rule_interval(
            "r1", 64500, 1200.0, 1200.0, 0.0, interval=10.0, time=0.0
        )
        telemetry = collector.telemetry_for_rule("r1")
        assert telemetry.samples[-1] == (0.0, 1200.0)  # raw matched bits
        assert telemetry.matched_rate_bps(10.0) == 120.0
        assert telemetry.matched_rate_bps(5.0) == 240.0
        with pytest.raises(ValueError):
            telemetry.matched_rate_bps(0.0)

    def test_matched_rate_without_samples_is_zero(self):
        telemetry = RuleTelemetry(rule_id="x", member_asn=1)
        assert telemetry.matched_rate_bps(10.0) == 0.0
        assert not telemetry.attack_appears_over

    def test_report_for_member_filters_by_asn(self):
        collector = TelemetryCollector()
        collector.record_rule_interval("a", 64500, 1.0, 1.0, 0.0, 10.0, 0.0)
        collector.record_rule_interval("b", 64999, 1.0, 1.0, 0.0, 10.0, 0.0)
        report = collector.report_for_member(64500)
        assert report.active_rule_count == 1
        assert len(collector.all_rules()) == 2

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            TelemetryCollector().record_rule_interval("r", 1, 0, 0, 0, interval=0, time=0)
