"""Tests for the blackholing controller: RIB diff to control-plane requests."""

from repro.bgp import (
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
    RuleAction,
    StellarCommunityCodec,
)
from repro.ixp import (
    ControlPlaneService,
    EdgeRouter,
    IxpMember,
    SwitchingFabric,
    small_ixp_edge_router_profile,
)
from repro.traffic import IpProtocol

IXP_ASN = 64700


def make_rule(port=123, prefix="100.10.10.10/32", action=RuleAction.DROP, rate=0.0):
    return BlackholingRule(
        owner_asn=64500,
        dst_prefix=Prefix.parse(prefix),
        action=action,
        protocol=IpProtocol.UDP,
        src_port=port,
        shape_rate_bps=rate,
    )


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
            RouteAnnouncement(prefix=rule.dst_prefix, attributes=attrs, path_id=path_id),
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
        stranger = BlackholingRule(owner_asn=60000, dst_prefix=Prefix.parse("9.9.9.9/32"))
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
        shape = make_rule(action=RuleAction.SHAPE, rate=2e8)
        controller.process_update(signal_update(shape, path_id=1))
        drop = make_rule(action=RuleAction.DROP)
        changes = controller.process_update(signal_update(drop, path_id=1))
        # An update is an install of the same rule id: the router replaces
        # the rule in place.
        assert [change.op for change in changes] == ["install"]
        assert controller.stats.rules_updated == 1
        assert changes[0].rules[0].rule_id == controller.active_rules()[0].rule_id
        assert changes[0].rules[0].action.name == "DROP"

    def test_withdrawal_produces_remove(self):
        controller = self._controller()
        rule = make_rule()
        controller.process_update(signal_update(rule, path_id=1))
        withdrawal = UpdateMessage(
            sender_asn=IXP_ASN,
            withdrawals=(RouteWithdrawal(prefix=rule.dst_prefix, path_id=1),),
        )
        installed = controller.active_rules()[0]
        changes = controller.process_update(withdrawal)
        assert [change.op for change in changes] == ["remove"]
        assert changes[0].rule_id == installed.rule_id
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
        assert (rule.protocol, rule.src_port, rule.dst_port, rule.src_mac) == (None,) * 4

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
        rule_b = BlackholingRule(
            owner_asn=64501,
            dst_prefix=Prefix.parse("100.10.10.10/32"),
            protocol=IpProtocol.UDP,
            src_port=53,
        )
        controller.process_update(signal_update(rule_a, path_id=1))
        controller.process_update(signal_update(rule_b, path_id=2))
        assert len(controller.active_rules()) == 2

    def test_session_is_ibgp_with_addpath(self):
        controller = self._controller()
        assert controller.session.add_path
        assert controller.session.is_established
        assert controller.session.local_asn == controller.session.peer_asn
