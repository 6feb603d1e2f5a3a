"""Tests for the blackholing controller: rule-set diff to control-plane requests."""

from repro.bgp import (
    ExtendedCommunity,
    PathAttributes,
    Prefix,
    RouteAnnouncement,
    RouteWithdrawal,
    UpdateMessage,
    rtbh_community,
)
from repro.core import (
    BlackholingController,
    BlackholingRule,
    RuleTemplate,
    Stellar,
    StellarCommunityCodec,
)
from repro.ixp import (
    ControlPlaneService,
    EdgeRouter,
    FilterAction,
    FlowMatch,
    IxpMember,
    SwitchingFabric,
    small_ixp_edge_router_profile,
)
from repro.traffic import IpProtocol

IXP_ASN = 64700


def make_rule(port=123, prefix="100.10.10.10/32", action=FilterAction.DROP, rate=0.0):
    match = FlowMatch(dst_prefix=Prefix.parse(prefix), protocol=IpProtocol.UDP, src_port=port)
    return BlackholingRule.create(64500, match, action, rate)


def signal_update(rule, codec=None, path_id=0):
    codec = codec if codec is not None else StellarCommunityCodec(IXP_ASN)
    attrs = PathAttributes(
        as_path=(rule.owner_asn,), next_hop="10.0.0.1"
    ).with_extended_communities(
        *codec.encode(rule)
    )
    return UpdateMessage(
        sender_asn=IXP_ASN,
        announcements=(
            RouteAnnouncement(
                prefix=rule.qos.match.dst_prefix, attributes=attrs, path_id=path_id
            ),
        ),
    )


class TestBlackholingController:
    def _controller(self, **kwargs):
        fabric = SwitchingFabric()
        fabric.add_edge_router(EdgeRouter("er-1", profile=small_ixp_edge_router_profile()))
        fabric.connect_member(IxpMember(asn=64500))
        fabric.connect_member(IxpMember(asn=64501))
        return BlackholingController(
            ixp_asn=IXP_ASN, service=ControlPlaneService(fabric), **kwargs
        )

    def test_stellar_signal_enqueues_an_install(self):
        controller = self._controller()
        rule = make_rule()
        changes = controller.process_update(signal_update(rule))
        assert len(changes) == 1
        assert changes[0].op == "install"
        assert changes[0].member_asn == 64500
        assert changes[0].rules[0].match.src_port == 123
        assert len(controller.active_rules()) == 1
        assert controller.service.queue_depth() == 1
        assert controller.take_rejections() == []

    def test_signal_is_stamped_with_the_controller_clock(self):
        now = [42.0]
        controller = self._controller(clock=lambda: now[0])
        (change,) = controller.process_update(signal_update(make_rule()))
        assert change.arrival_time == 42.0

    def test_enqueue_rejections_are_kept_until_taken(self):
        controller = self._controller()
        stranger = BlackholingRule.create(
            60000, FlowMatch(dst_prefix=Prefix.parse("9.9.9.9/32"))
        )
        (change,) = controller.process_update(signal_update(stranger))
        ((request, response),) = controller.take_rejections()
        assert request is change
        assert response.status == "rejected"
        assert response.reason == "unknown-member"
        assert controller.take_rejections() == []
        # Refused for good: the next update does not send it again.
        (change,) = controller.process_update(signal_update(make_rule(), path_id=7))
        assert change.member_asn == 64500
        assert controller.take_rejections() == []
        assert controller.retry_due() == []

    def test_same_signal_twice_is_idempotent(self):
        controller = self._controller()
        rule = make_rule()
        controller.process_update(signal_update(rule, path_id=1))
        changes = controller.process_update(signal_update(rule, path_id=1))
        assert changes == []
        assert len(controller.active_rules()) == 1

    def test_action_change_produces_update(self):
        controller = self._controller()
        shape = make_rule(action=FilterAction.SHAPE, rate=2e8)
        controller.process_update(signal_update(shape, path_id=1))
        drop = make_rule(action=FilterAction.DROP)
        changes = controller.process_update(signal_update(drop, path_id=1))
        # An update is an install of the same rule id: the router replaces
        # the rule in place.
        assert [change.op for change in changes] == ["install"]
        assert controller.stats.rules_updated == 1
        assert changes[0].rules[0].rule_id == controller.active_rules()[0].qos.rule_id
        assert changes[0].rules[0].action.name == "DROP"

    def test_withdrawal_produces_remove(self):
        controller = self._controller()
        rule = make_rule()
        controller.process_update(signal_update(rule, path_id=1))
        withdrawal = UpdateMessage(
            sender_asn=IXP_ASN,
            withdrawals=(RouteWithdrawal(prefix=rule.qos.match.dst_prefix, path_id=1),),
        )
        installed = controller.active_rules()[0]
        changes = controller.process_update(withdrawal)
        assert [change.op for change in changes] == ["remove"]
        assert changes[0].rule_id == installed.qos.rule_id
        assert len(controller.active_rules()) == 0

    def test_rtbh_translation_enabled(self):
        controller = self._controller(translate_rtbh=True)
        attrs = PathAttributes(as_path=(64500,), next_hop="10.0.0.1").with_communities(
            rtbh_community(IXP_ASN)
        )
        update = UpdateMessage(
            sender_asn=IXP_ASN,
            announcements=(
                RouteAnnouncement(prefix=Prefix.parse("100.10.10.10/32"), attributes=attrs),
            ),
        )
        changes = controller.process_update(update)
        assert len(changes) == 1
        (rule,) = controller.active_rules()
        assert rule.qos.match == FlowMatch(dst_prefix=Prefix.parse("100.10.10.10/32"))

    def test_rtbh_translation_disabled(self):
        controller = self._controller(translate_rtbh=False)
        attrs = PathAttributes(as_path=(64500,), next_hop="10.0.0.1").with_communities(
            rtbh_community(IXP_ASN)
        )
        update = UpdateMessage(
            sender_asn=IXP_ASN,
            announcements=(
                RouteAnnouncement(prefix=Prefix.parse("100.10.10.10/32"), attributes=attrs),
            ),
        )
        assert controller.process_update(update) == []

    def test_plain_announcement_is_ignored(self):
        controller = self._controller()
        attrs = PathAttributes(as_path=(64500,), next_hop="10.0.0.1")
        update = UpdateMessage(
            sender_asn=IXP_ASN,
            announcements=(
                RouteAnnouncement(prefix=Prefix.parse("100.10.10.0/24"), attributes=attrs),
            ),
        )
        assert controller.process_update(update) == []
        assert controller.stats.announcements_seen == 1

    def test_predefined_rule_resolution(self):
        controller = self._controller()
        codec = controller.codec
        attrs = PathAttributes(as_path=(64500,), next_hop="10.0.0.1").with_extended_communities(
            *codec.encode_predefined(1)
        )
        update = UpdateMessage(
            sender_asn=IXP_ASN,
            announcements=(
                RouteAnnouncement(prefix=Prefix.parse("100.10.10.10/32"), attributes=attrs),
            ),
        )
        changes = controller.process_update(update)
        assert len(changes) == 1
        assert changes[0].rules[0].match.src_port == 123  # shared template 1 = drop-ntp

    def test_unknown_predefined_rule_counts_decode_error(self):
        controller = self._controller()
        attrs = PathAttributes(as_path=(64500,), next_hop="10.0.0.1").with_extended_communities(
            *controller.codec.encode_predefined(777)
        )
        update = UpdateMessage(
            sender_asn=IXP_ASN,
            announcements=(
                RouteAnnouncement(prefix=Prefix.parse("100.10.10.10/32"), attributes=attrs),
            ),
        )
        assert controller.process_update(update) == []
        assert controller.stats.decode_errors == 1

    def test_two_members_same_prefix_distinct_rules(self):
        controller = self._controller()
        rule_a = make_rule()
        rule_b = BlackholingRule.drop_udp_source_port(64501, "100.10.10.10/32", 53)
        controller.process_update(signal_update(rule_a, path_id=1))
        controller.process_update(signal_update(rule_b, path_id=2))
        assert len(controller.active_rules()) == 2


class TestDecodeOnce:
    """Each announced path is decoded once, when it arrives."""

    HOST = "100.10.10.10/32"

    def _stellar(self):
        fabric = SwitchingFabric()
        fabric.add_edge_router(EdgeRouter("er-1"))
        stellar = Stellar(ixp_asn=IXP_ASN, fabric=fabric)
        stellar.add_member(IxpMember(asn=64500, prefixes=["100.10.10.0/24"]))
        return stellar

    def test_n_api_signals_decode_n_times(self):
        stellar = self._stellar()
        signals = 40
        for port in range(1, signals + 1):
            rule = BlackholingRule.drop_udp_source_port(64500, self.HOST, port)
            stellar.request_mitigation(rule, via="api")
        assert stellar.controller.stats.signals_decoded == signals
        assert len(stellar.active_rules()) == signals

    def test_a_malformed_signal_counts_one_decode_error(self):
        controller = TestBlackholingController()._controller()
        bogus = ExtendedCommunity(type=0x80, subtype=0x7F, global_admin=IXP_ASN, local_admin=1)
        attrs = PathAttributes(as_path=(64500,), next_hop="10.0.0.1").with_extended_communities(
            bogus
        )
        controller.process_update(
            UpdateMessage(
                sender_asn=IXP_ASN,
                announcements=(
                    RouteAnnouncement(prefix=Prefix.parse(self.HOST), attributes=attrs),
                ),
            )
        )
        for path_id, port in enumerate((53, 123, 11211), start=1):
            controller.process_update(signal_update(make_rule(port=port), path_id=path_id))
        assert controller.stats.decode_errors == 1
        assert controller.stats.signals_decoded == 3

    def test_a_removed_custom_rule_stays_active_until_its_signal_is_withdrawn(self):
        stellar = self._stellar()
        portal = stellar.portal
        custom = portal.define_custom_rule(
            64500,
            RuleTemplate(name="drop-tcp-80", match=FlowMatch(protocol=IpProtocol.TCP, dst_port=80)),
        )
        stellar.request_predefined_mitigation(64500, self.HOST, custom)
        stellar.advance(now=1.0)
        (signalled,) = stellar.active_rules()
        assert portal.remove_custom_rule(64500, custom)
        # An unrelated signal leaves the accepted one as it is.
        stellar.request_mitigation(
            BlackholingRule.drop_udp_source_port(64500, self.HOST, 123), via="api"
        )
        stellar.advance(now=2.0)
        assert signalled in stellar.active_rules()
        assert len(stellar.active_rules()) == 2
        assert stellar.installed_rule_count() == 2
        assert stellar.controller.stats.decode_errors == 0
        stellar.withdraw_mitigation(64500, self.HOST, via="bgp")
        stellar.advance(now=3.0)
        assert [rule.qos.match.src_port for rule in stellar.active_rules()] == [123]
        assert stellar.installed_rule_count() == 1


class TestHeldChanges:
    """A change held for a ``retry_after`` is not built into a request."""

    def test_only_the_requests_sent_are_made(self, monkeypatch):
        stellar = TestDecodeOnce()._stellar()
        service = stellar.service
        made = []
        make_request = service.make_request

        def counting(*args, **kwargs):
            request = make_request(*args, **kwargs)
            made.append(request)
            return request

        monkeypatch.setattr(service, "make_request", counting)
        for host in range(1, 121):
            rule = BlackholingRule.drop_udp_source_port(64500, f"100.10.10.{host}/32", 123)
            assert stellar.request_mitigation(rule, via="bgp").accepted
        # The member's change budget holds most of the 120 signals back.
        assert len(stellar.active_rules()) < 120
        assert len(made) == service.stats.submitted
        for now in (10.0, 30.0, 60.0):
            stellar.advance(now=now)
            assert len(made) == service.stats.submitted
        assert stellar.installed_rule_count() == 120
        assert [request.request_id for request in made] == list(range(1, len(made) + 1))
