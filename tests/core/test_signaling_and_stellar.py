"""Integration tests for the signaling layer, telemetry and the Stellar facade."""

import pytest

from repro.bgp import ImportPolicy, Prefix
from repro.core import (
    BlackholingRule,
    RuleTemplate,
    SignalRejectedError,
    Stellar,
    TelemetryCollector,
    ixp_shared_templates,
)
from repro.ixp import (
    EdgeRouter,
    HardwareProfile,
    IxpMember,
    SwitchingFabric,
    small_ixp_edge_router_profile,
)
from repro.traffic import BenignTrafficSource, BooterAttack, FlowTable, IpProtocol

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
        stellar.advance(now=1.0)
        assert stellar.installed_rule_count() == 1

    def test_api_signal_path(self):
        stellar, victim, peers = build_stellar()
        rule = BlackholingRule.drop_udp_source_port(VICTIM_ASN, f"{VICTIM_IP}/32", 123)
        result = stellar.request_mitigation(rule, via="api")
        assert result.accepted and result.via == "api"
        stellar.advance(now=1.0)
        assert stellar.installed_rule_count() == 1

    def test_unknown_signalling_path_rejected(self):
        stellar, victim, peers = build_stellar()
        rule = BlackholingRule(owner_asn=VICTIM_ASN, dst_prefix=Prefix.parse(f"{VICTIM_IP}/32"))
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
                BlackholingRule(owner_asn=65001, dst_prefix=Prefix.parse(f"{VICTIM_IP}/32")),
                via="api",
            )

    def test_withdraw_removes_rule_from_dataplane(self):
        stellar, victim, peers = build_stellar()
        rule = BlackholingRule.drop_udp_source_port(VICTIM_ASN, f"{VICTIM_IP}/32", 123)
        stellar.request_mitigation(rule)
        stellar.advance(now=1.0)
        assert stellar.installed_rule_count() == 1
        stellar.withdraw_mitigation(VICTIM_ASN, f"{VICTIM_IP}/32")
        stellar.advance(now=2.0)
        assert stellar.installed_rule_count() == 0
        assert stellar.active_rules() == []

    def test_api_withdrawal_keeps_the_members_bgp_signalled_rule(self):
        stellar, victim, peers = build_stellar()
        prefix = f"{VICTIM_IP}/32"
        stellar.request_mitigation(
            BlackholingRule.drop_udp_source_port(VICTIM_ASN, prefix, 123), via="bgp"
        )
        stellar.request_mitigation(
            BlackholingRule.drop_udp_source_port(VICTIM_ASN, prefix, 53), via="api"
        )
        stellar.advance(now=1.0)
        assert stellar.installed_rule_count() == 2
        stellar.withdraw_mitigation(VICTIM_ASN, prefix, via="api")
        stellar.advance(now=2.0)
        assert [rule.src_port for rule in stellar.active_rules()] == [123]
        assert stellar.installed_rule_count() == 1
        # The route server still holds the BGP signal, and so does the controller.
        (route,) = stellar.route_server.rib.routes_for(Prefix.parse(prefix))
        assert stellar.controller.rib.routes_for(route.prefix) == [route]

    def test_api_withdrawal_removes_only_the_callers_rules(self):
        stellar, victim, peers = build_stellar()
        prefix = f"{VICTIM_IP}/32"
        other = peers[0].asn
        for owner in (VICTIM_ASN, other):
            stellar.request_mitigation(
                BlackholingRule.drop_udp_source_port(owner, prefix, 123), via="api"
            )
        stellar.advance(now=1.0)
        assert stellar.installed_rule_count() == 2
        stellar.withdraw_mitigation(other, prefix, via="api")
        stellar.advance(now=2.0)
        assert [rule.owner_asn for rule in stellar.active_rules()] == [VICTIM_ASN]
        assert stellar.installed_rule_count() == 1

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

    def test_unknown_withdrawal_path_rejected(self):
        stellar, victim, peers = build_stellar()
        with pytest.raises(ValueError):
            stellar.withdraw_mitigation(VICTIM_ASN, f"{VICTIM_IP}/32", via="carrier-pigeon")


SIGNAL_PATHS = ("bgp", "api")


class TestWithdrawalOwnership:
    """A withdrawal removes exactly the rule its caller signalled on its path.

    The victim and a peer each signal one rule for the same /32, each over
    BGP or the API; then one of them withdraws over BGP or the API.
    """

    PREFIX = f"{VICTIM_IP}/32"

    def _signal_both(self, victim_via, peer_via):
        stellar, victim, peers = build_stellar()
        signals = {VICTIM_ASN: (victim_via, 123), peers[0].asn: (peer_via, 53)}
        for owner, (via, port) in signals.items():
            stellar.request_mitigation(
                BlackholingRule.drop_udp_source_port(owner, self.PREFIX, port), via=via
            )
        stellar.advance(now=1.0)
        assert stellar.installed_rule_count() == 2
        return stellar, signals

    @pytest.mark.parametrize("withdraw_via", SIGNAL_PATHS)
    @pytest.mark.parametrize("withdrawer", ["victim", "peer"])
    @pytest.mark.parametrize("peer_via", SIGNAL_PATHS)
    @pytest.mark.parametrize("victim_via", SIGNAL_PATHS)
    def test_withdrawal_removes_only_the_callers_rule_on_its_path(
        self, victim_via, peer_via, withdrawer, withdraw_via
    ):
        stellar, signals = self._signal_both(victim_via, peer_via)
        caller = VICTIM_ASN if withdrawer == "victim" else next(
            owner for owner in signals if owner != VICTIM_ASN
        )
        stellar.withdraw_mitigation(caller, self.PREFIX, via=withdraw_via)
        stellar.advance(now=2.0)
        expected = {
            owner: port
            for owner, (via, port) in signals.items()
            if (owner, via) != (caller, withdraw_via)
        }
        assert {rule.owner_asn: rule.src_port for rule in stellar.active_rules()} == expected
        assert stellar.installed_rule_count() == len(expected)
        # The route server holds the BGP signals that are left, and the
        # controller holds every one of them.
        prefix = Prefix.parse(self.PREFIX)
        held = stellar.route_server.rib.routes_for(prefix)
        assert sorted(route.attributes.origin_asn for route in held) == sorted(
            owner for owner in expected if signals[owner][0] == "bgp"
        )
        controller_routes = stellar.controller.rib.routes_for(prefix)
        assert all(route in controller_routes for route in held)

    @pytest.mark.parametrize("via", SIGNAL_PATHS)
    def test_withdrawal_without_a_signal_changes_nothing(self, via):
        stellar, signals = self._signal_both("bgp", "api")
        stellar.withdraw_mitigation(VICTIM_ASN, "100.10.10.11/32", via=via)
        stellar.advance(now=2.0)
        assert stellar.installed_rule_count() == 2
        assert len(stellar.active_rules()) == 2

    @pytest.mark.parametrize("via", SIGNAL_PATHS)
    def test_a_withdrawn_signal_can_be_sent_again(self, via):
        stellar, victim, peers = build_stellar()
        rule = BlackholingRule.drop_udp_source_port(VICTIM_ASN, self.PREFIX, 123)
        stellar.request_mitigation(rule, via=via)
        stellar.advance(now=1.0)
        stellar.withdraw_mitigation(VICTIM_ASN, self.PREFIX, via=via)
        stellar.advance(now=2.0)
        assert stellar.installed_rule_count() == 0
        stellar.request_mitigation(
            BlackholingRule.drop_udp_source_port(VICTIM_ASN, self.PREFIX, 123), via=via
        )
        stellar.advance(now=3.0)
        assert [rule.src_port for rule in stellar.active_rules()] == [123]
        assert stellar.installed_rule_count() == 1

    def test_api_withdrawal_removes_all_of_the_callers_api_rules_for_the_prefix(self):
        stellar, victim, peers = build_stellar()
        for port in (123, 53, 11211):
            stellar.request_mitigation(
                BlackholingRule.drop_udp_source_port(VICTIM_ASN, self.PREFIX, port), via="api"
            )
        other_prefix = "100.10.10.11/32"
        stellar.request_mitigation(
            BlackholingRule.drop_udp_source_port(VICTIM_ASN, other_prefix, 123), via="api"
        )
        stellar.advance(now=1.0)
        assert stellar.installed_rule_count() == 4
        stellar.withdraw_mitigation(VICTIM_ASN, self.PREFIX, via="api")
        stellar.advance(now=2.0)
        assert [str(rule.dst_prefix) for rule in stellar.active_rules()] == [other_prefix]
        assert stellar.installed_rule_count() == 1


class TestPredefinedSignalling:
    """The portal's predefined rules, referenced by id from a BGP signal."""

    PREFIX = f"{VICTIM_IP}/32"

    @pytest.mark.parametrize("rule_id", sorted(ixp_shared_templates()))
    def test_each_shared_template_installs_the_rule_it_describes(self, rule_id):
        template = ixp_shared_templates()[rule_id]
        stellar, victim, peers = build_stellar()
        result = stellar.request_predefined_mitigation(VICTIM_ASN, self.PREFIX, rule_id)
        assert result.accepted and result.via == "bgp"
        stellar.advance(now=1.0)
        (rule,) = stellar.active_rules()
        assert rule.owner_asn == VICTIM_ASN
        assert str(rule.dst_prefix) == self.PREFIX
        assert (rule.action, rule.protocol, rule.src_port, rule.dst_port) == (
            template.action,
            template.protocol,
            template.src_port,
            template.dst_port,
        )
        assert stellar.installed_rule_count() == 1

    def _custom_rule(self, stellar):
        return stellar.controller.portal.define_custom_rule(
            VICTIM_ASN, RuleTemplate(name="drop-tcp-80", protocol=IpProtocol.TCP, dst_port=80)
        )

    def test_a_custom_rule_is_signalled_by_its_owner(self):
        stellar, victim, peers = build_stellar()
        rule_id = self._custom_rule(stellar)
        assert stellar.request_predefined_mitigation(VICTIM_ASN, self.PREFIX, rule_id).accepted
        stellar.advance(now=1.0)
        (rule,) = stellar.active_rules()
        assert (rule.protocol, rule.dst_port) == (IpProtocol.TCP, 80)
        assert stellar.installed_rule_count() == 1

    def test_another_member_cannot_signal_a_custom_rule(self):
        stellar, victim, peers = build_stellar()
        rule_id = self._custom_rule(stellar)
        with pytest.raises(PermissionError):
            stellar.request_predefined_mitigation(peers[0].asn, self.PREFIX, rule_id)
        stellar.advance(now=1.0)
        assert stellar.active_rules() == []
        assert stellar.installed_rule_count() == 0

    def test_a_removed_custom_rule_can_no_longer_be_signalled(self):
        stellar, victim, peers = build_stellar()
        rule_id = self._custom_rule(stellar)
        assert stellar.controller.portal.remove_custom_rule(VICTIM_ASN, rule_id)
        with pytest.raises(KeyError):
            stellar.request_predefined_mitigation(VICTIM_ASN, self.PREFIX, rule_id)
        assert stellar.active_rules() == []


class TestStellarDataPlane:
    def test_drop_rule_filters_attack_but_not_benign(self):
        stellar, victim, peers = build_stellar(victim_capacity=10e9)
        rule = BlackholingRule.drop_udp_source_port(VICTIM_ASN, f"{VICTIM_IP}/32", 123)
        stellar.request_mitigation(rule)
        stellar.advance(now=0.0)
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
        stellar.advance(now=0.0)
        flows = attack_flows(peers, rate=1e9)
        report = stellar.deliver_traffic(flows, interval=10.0, interval_start=0.0)
        result = report.fabric_report.results_by_member[VICTIM_ASN]
        assert result.shaped_passed_bits == pytest.approx(1e8 * 10.0, rel=0.05)

    def test_interval_report_carries_the_deployments(self):
        stellar, victim, peers = build_stellar()
        stellar.advance_to(5.0)
        rule = BlackholingRule.drop_udp_source_port(VICTIM_ASN, f"{VICTIM_IP}/32", 123)
        stellar.request_mitigation(rule, via="api")
        report = stellar.deliver_traffic(
            benign_flows(peers, t=10.0), interval=10.0, interval_start=10.0
        )
        ((request, response),) = report.deployments
        assert (request.op, request.member_asn) == ("install", VICTIM_ASN)
        assert request.rules[0].rule_id == stellar.active_rules()[0].rule_id
        assert response.status == "applied"
        # Signalled at 5 s with tokens to spare: applied on arrival.
        assert (response.applied_at, response.latency) == (5.0, 0.0)

    def test_enqueue_rejections_join_the_deployments(self):
        # The service's per-member budget admits 4.33 changes/s over a
        # 10 s window; the rest are rejected at enqueue and reported.
        stellar, victim, peers = build_stellar()
        for port in range(1, 51):
            stellar.request_mitigation(
                BlackholingRule.drop_udp_source_port(VICTIM_ASN, f"{VICTIM_IP}/32", port),
                via="api",
            )
        deployments = stellar.advance(now=5.0)
        assert [response.status for _, response in deployments[:7]] == ["rejected"] * 7
        assert {response.reason for _, response in deployments[:7]} == {"budget"}
        assert {response.retry_after for _, response in deployments[:7]} == {10.0}
        assert stellar.installed_rule_count() == 10 + int(5.0 * 4.33)
        # Rejected changes stay out of the active set until they are sent.
        assert len(stellar.active_rules()) == 43
        # Once the window turns, the diff sends the seven changes again.
        retried = stellar.advance(now=20.0)
        assert all(response.status == "applied" for _, response in retried)
        assert sorted(request.rules[0].match.src_port for request, _ in retried[-7:]) == list(
            range(44, 51)
        )
        assert stellar.installed_rule_count() == 50
        assert len(stellar.active_rules()) == 50
        assert stellar.advance(now=30.0) == []

    def test_a_withdrawal_rejected_by_the_budget_is_applied_later(self):
        stellar, victim, peers = build_stellar()
        for port in range(1, 44):
            stellar.request_mitigation(
                BlackholingRule.drop_udp_source_port(VICTIM_ASN, f"{VICTIM_IP}/32", port),
                via="api",
            )
        result = stellar.withdraw_mitigation(VICTIM_ASN, f"{VICTIM_IP}/32", via="api")
        assert result.accepted
        deployments = stellar.advance(now=9.0)
        rejected = [req.op for req, resp in deployments if resp.status == "rejected"]
        assert rejected == ["remove"] * 43
        # The rules keep filtering until the removals are sent again.
        assert stellar.installed_rule_count() == 43
        assert len(stellar.active_rules()) == 43
        # Sent again at 20 s: a burst of 10, then 4.33 removals/s.
        stellar.advance(now=20.0)
        assert stellar.installed_rule_count() == 33
        stellar.advance(now=30.0)
        assert stellar.installed_rule_count() == 0
        assert stellar.active_rules() == []

    def test_a_rejected_install_is_applied_in_a_later_window(self):
        stellar, victim, peers = build_stellar()
        for port in range(1, 45):
            stellar.request_mitigation(
                BlackholingRule.drop_udp_source_port(VICTIM_ASN, f"{VICTIM_IP}/32", port),
                via="api",
            )
        ((request, response),) = stellar.advance(now=0.0)[:1]
        assert (request.op, response.reason) == ("install", "budget")
        # Re-signalling inside the window does not send it again early.
        stellar.request_mitigation(
            BlackholingRule.drop_udp_source_port(VICTIM_ASN, f"{VICTIM_IP}/32", 44), via="api"
        )
        assert all(resp.status == "applied" for _, resp in stellar.advance(now=9.0))
        assert stellar.installed_rule_count() == 43
        ((request, response),) = stellar.advance(now=10.0)
        assert request.rules[0].match.src_port == 44
        assert response.status == "applied"
        assert stellar.installed_rule_count() == 44

    def test_a_signal_the_tcam_cannot_hold_resolves_as_an_error(self):
        # Three L3-L4 criteria fit: one UDP source-port rule (prefix,
        # protocol, port) and not a second.
        tiny = HardwareProfile(
            name="tiny", port_count=4, mac_filter_capacity=2, l3l4_criteria_capacity=3
        )
        fabric = SwitchingFabric()
        fabric.add_edge_router(EdgeRouter("er-1", profile=tiny))
        stellar = Stellar(ixp_asn=IXP_ASN, fabric=fabric)
        stellar.add_member(IxpMember(asn=VICTIM_ASN, prefixes=["100.10.10.0/24"]))
        for host, port in (("100.10.10.10", 123), ("100.10.10.11", 53)):
            stellar.request_mitigation(
                BlackholingRule.drop_udp_source_port(VICTIM_ASN, f"{host}/32", port)
            )
        responses = [response for _, response in stellar.advance(now=1.0)]
        assert [(r.status, r.reason) for r in responses] == [
            ("applied", ""),
            ("error", "tcam-exhausted"),
        ]
        assert stellar.installed_rule_count() == 1

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
            stellar.advance(now=now)
            installed.append(stellar.installed_rule_count())
        assert installed == [10, 10, 11, 12]

    def test_telemetry_reports_matched_traffic(self):
        stellar, victim, peers = build_stellar(victim_capacity=10e9)
        rule = BlackholingRule.drop_udp_source_port(VICTIM_ASN, f"{VICTIM_IP}/32", 123)
        stellar.request_mitigation(rule)
        stellar.advance(now=0.0)
        flows = attack_flows(peers)
        stellar.deliver_traffic(flows, interval=10.0, interval_start=0.0)
        report = stellar.telemetry_report(VICTIM_ASN)
        assert report.active_rule_count == 1
        assert report.total_filtered_bits > 0
        rule_telemetry = report.rules[0]
        assert rule_telemetry.matched_bits > 0

    def test_shaper_discards_reach_telemetry(self):
        # A SHAPE rule over its rate: the bits its shaper discards count
        # as filtered for the member, just like a DROP rule's.
        stellar, victim, peers = build_stellar(victim_capacity=10e9)
        rule = BlackholingRule.shape_udp_source_port(
            VICTIM_ASN, f"{VICTIM_IP}/32", 123, rate_bps=1e8
        )
        stellar.request_mitigation(rule)
        report = stellar.deliver_traffic(
            attack_flows(peers, rate=1e9), interval=10.0, interval_start=0.0
        )
        result = report.fabric_report.results_by_member[VICTIM_ASN]
        assert result.dropped_bits == 0
        assert result.shaped_dropped_bits > 0
        telemetry = stellar.telemetry_report(VICTIM_ASN)
        (rule_telemetry,) = telemetry.rules
        assert rule_telemetry.shaped_dropped_bits == result.shaped_dropped_bits
        assert telemetry.total_filtered_bits == result.shaped_dropped_bits
        assert telemetry.total_filtered_bits == report.filtered_bits

    def test_telemetry_detects_attack_end(self):
        stellar, victim, peers = build_stellar(victim_capacity=10e9)
        rule = BlackholingRule.drop_udp_source_port(VICTIM_ASN, f"{VICTIM_IP}/32", 123)
        stellar.request_mitigation(rule)
        stellar.advance(now=0.0)
        stellar.deliver_traffic(attack_flows(peers), interval=10.0, interval_start=0.0)
        installed_rule_id = stellar.active_rules()[0].rule_id
        telemetry = stellar.telemetry.telemetry_for_rule(installed_rule_id)
        during_attack = telemetry.matched_bits
        assert during_attack > 0
        # Next interval: only benign traffic — the rule matches nothing, so
        # the member sees its matched volume stop growing.
        stellar.deliver_traffic(benign_flows(peers, t=10.0), interval=10.0, interval_start=10.0)
        assert telemetry.matched_bits == during_attack

    def test_interval_report_properties(self):
        stellar, victim, peers = build_stellar()
        report = stellar.deliver_traffic(benign_flows(peers), interval=10.0, interval_start=0.0)
        assert report.fabric_report.delivered_bits > 0
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
        collector.record_rule_interval(
            "r1", 64500, 1000.0, 1000.0, 0.0, interval=10.0, time=0.0, shaped_dropped_bits=0.0
        )
        collector.record_rule_interval(
            "r1", 64500, 500.0, 500.0, 0.0, interval=10.0, time=10.0, shaped_dropped_bits=0.0
        )
        telemetry = collector.telemetry_for_rule("r1")
        assert telemetry.matched_bits == 1500.0
        assert telemetry.dropped_bits == 1500.0
        assert telemetry.last_update == 10.0

    def test_report_for_member_filters_by_asn(self):
        collector = TelemetryCollector()
        collector.record_rule_interval(
            "a", 64500, 1.0, 1.0, 0.0, 10.0, 0.0, shaped_dropped_bits=0.0
        )
        collector.record_rule_interval(
            "b", 64999, 1.0, 1.0, 0.0, 10.0, 0.0, shaped_dropped_bits=0.0
        )
        report = collector.report_for_member(64500)
        assert report.active_rule_count == 1
        assert collector.report_for_member(64999).active_rule_count == 1

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            TelemetryCollector().record_rule_interval(
                "r", 1, 0, 0, 0, interval=0, time=0, shaped_dropped_bits=0.0
            )
