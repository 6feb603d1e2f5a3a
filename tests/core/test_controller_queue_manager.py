"""Tests for the change queue, the blackholing controller and the network manager."""

import math

import pytest

from fuzz.strategies import router_fabric
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
    ChangeQueue,
    ChangeType,
    ConfigChange,
    MAX_RULES_PER_PORT,
    DeploymentStatus,
    NetworkManager,
    RuleAction,
    StellarCommunityCodec,
)
from repro.core.manager import admission_rejection
from repro.ixp import (
    EdgeRouter,
    HardwareProfile,
    IxpMember,
    PortNotFoundError,
    SwitchingFabric,
    small_ixp_edge_router_profile,
)
from repro.traffic import IpProtocol

BAD_RATES = [0.0, -1.0, math.nan, math.inf]

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


def make_change(rule=None, change_type=ChangeType.ADD_RULE, enqueue_time=0.0):
    rule = rule if rule is not None else make_rule()
    return ConfigChange(
        change_type=change_type,
        rule=rule,
        target_member_asn=rule.owner_asn,
        enqueue_time=enqueue_time,
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


class TestChangeQueue:
    def test_burst_then_rate_limit(self):
        queue = ChangeQueue(rate_per_second=1.0, max_burst_size=2)
        for _ in range(4):
            queue.enqueue(make_change())
        assert len(queue.drain(now=0.0)) == 2
        assert len(queue.drain(now=0.0)) == 0
        assert len(queue.drain(now=1.0)) == 1
        assert len(queue) == 1

    def test_drain_is_fifo(self):
        queue = ChangeQueue()
        changes = [make_change(make_rule(port=port)) for port in (1, 2, 3)]
        for change in changes:
            queue.enqueue(change)
        assert queue.drain(now=0.0) == changes

    def test_drain_empty_returns_nothing(self):
        assert ChangeQueue().drain(0.0) == []

    @pytest.mark.parametrize("rate", BAD_RATES)
    def test_validation(self, rate):
        # A NaN or infinite rate used to refill the bucket on every call,
        # which switched the pacing off.
        with pytest.raises(ValueError):
            ChangeQueue(rate_per_second=rate, max_burst_size=1)
        with pytest.raises(ValueError):
            ChangeQueue(max_burst_size=0)


class TestBlackholingController:
    def _controller(self, **kwargs):
        return BlackholingController(ixp_asn=IXP_ASN, **kwargs)

    def test_stellar_signal_creates_add_change(self):
        controller = self._controller()
        rule = make_rule()
        changes = controller.process_update(signal_update(rule))
        assert len(changes) == 1
        assert changes[0].change_type is ChangeType.ADD_RULE
        assert changes[0].rule.src_port == 123
        assert controller.active_rule_count() == 1
        assert len(controller.change_queue) == 1

    def test_same_signal_twice_is_idempotent(self):
        controller = self._controller()
        rule = make_rule()
        controller.process_update(signal_update(rule, path_id=1))
        changes = controller.process_update(signal_update(rule, path_id=1))
        assert changes == []
        assert controller.active_rule_count() == 1

    def test_action_change_produces_update(self):
        controller = self._controller()
        shape = make_rule(action=RuleAction.SHAPE, rate=2e8)
        controller.process_update(signal_update(shape, path_id=1))
        drop = make_rule(action=RuleAction.DROP)
        changes = controller.process_update(signal_update(drop, path_id=1))
        assert [change.change_type for change in changes] == [ChangeType.UPDATE_RULE]
        # The rule id must stay stable so the data plane replaces in place.
        assert changes[0].rule.rule_id == controller.active_rules()[0].rule_id

    def test_withdrawal_produces_remove(self):
        controller = self._controller()
        rule = make_rule()
        controller.process_update(signal_update(rule, path_id=1))
        withdrawal = UpdateMessage(
            sender_asn=IXP_ASN,
            withdrawals=(RouteWithdrawal(prefix=rule.dst_prefix, path_id=1),),
        )
        changes = controller.process_update(withdrawal)
        assert [change.change_type for change in changes] == [ChangeType.REMOVE_RULE]
        assert controller.active_rule_count() == 0

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
        assert changes[0].rule.is_plain_rtbh

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
        assert changes[0].rule.src_port == 123  # shared template 1 = drop-ntp

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
        assert controller.active_rule_count() == 2

    def test_session_is_ibgp_with_addpath(self):
        controller = self._controller()
        assert controller.session.add_path
        assert controller.session.is_established
        assert controller.session.local_asn == controller.session.peer_asn


def fill_port(router, member_asn, count=MAX_RULES_PER_PORT):
    """Install ``count`` distinct rules on the member's port; return the first."""
    rules = [make_rule(port=port).to_qos_rule() for port in range(1, count + 1)]
    router.install_rules(member_asn, rules)
    return rules[0]


class TestAdmission:
    def _router(self):
        router = EdgeRouter("er-1", profile=small_ixp_edge_router_profile())
        router_fabric(router, IxpMember(asn=64500))
        return router

    def test_admission_ok(self):
        assert admission_rejection(self._router(), 64500, make_rule().to_qos_rule()) == ""

    def test_admission_rejects_unknown_member(self):
        with pytest.raises(PortNotFoundError):
            admission_rejection(self._router(), 9999, make_rule().to_qos_rule())

    def test_admission_rejects_port_rule_limit(self):
        router = self._router()
        fill_port(router, 64500, MAX_RULES_PER_PORT - 1)
        last = make_rule(port=MAX_RULES_PER_PORT).to_qos_rule()
        assert admission_rejection(router, 64500, last) == ""
        router.install_rule(64500, last)
        rule = make_rule(port=MAX_RULES_PER_PORT + 1).to_qos_rule()
        reason = admission_rejection(router, 64500, rule)
        assert "rules" in reason and str(MAX_RULES_PER_PORT) in reason

    def test_admission_rejects_tcam_limit(self):
        tiny = HardwareProfile(
            name="tiny", port_count=4, mac_filter_capacity=2, l3l4_criteria_capacity=3
        )
        router = EdgeRouter("er-1", profile=tiny)
        router_fabric(router, IxpMember(asn=64500))
        fill_port(router, 64500, 1)
        reason = admission_rejection(router, 64500, make_rule(port=2).to_qos_rule())
        assert reason.startswith("TCAM limit")


class TestNetworkManager:
    def _fabric(self):
        fabric = SwitchingFabric()
        fabric.add_edge_router(EdgeRouter("er-1", profile=small_ixp_edge_router_profile()))
        fabric.connect_member(IxpMember(asn=64500, port_capacity_bps=1e9))
        return fabric

    def test_qos_manager_applies_add_change(self):
        fabric = self._fabric()
        queue = ChangeQueue()
        manager = NetworkManager(fabric=fabric, change_queue=queue)
        queue.enqueue(make_change())
        records = manager.process_pending(now=1.0)
        assert len(records) == 1
        assert records[0].status is DeploymentStatus.APPLIED
        assert len(fabric.router_for_member(64500).installed_rules()) == 1

    def test_qos_manager_remove_change(self):
        fabric = self._fabric()
        queue = ChangeQueue()
        manager = NetworkManager(fabric=fabric, change_queue=queue)
        rule = make_rule()
        queue.enqueue(make_change(rule))
        manager.process_pending(now=1.0)
        queue.enqueue(make_change(rule, change_type=ChangeType.REMOVE_RULE))
        manager.process_pending(now=2.0)
        assert len(fabric.router_for_member(64500).installed_rules()) == 0

    def test_qos_manager_unknown_member(self):
        fabric = self._fabric()
        queue = ChangeQueue()
        manager = NetworkManager(fabric=fabric, change_queue=queue)
        rule = BlackholingRule.drop_all(60000, "9.9.9.9/32")
        queue.enqueue(
            ConfigChange(change_type=ChangeType.ADD_RULE, rule=rule, target_member_asn=60000)
        )
        records = manager.process_pending(now=1.0)
        assert len(records) == 1
        assert records[0].status is DeploymentStatus.FAILED_NO_PORT

    def test_qos_manager_admission_rejection(self):
        fabric = self._fabric()
        queue = ChangeQueue()
        manager = NetworkManager(fabric=fabric, change_queue=queue)
        # Fill the victim's port to the rule limit, then request another.
        fill_port(fabric.router_for_member(64500), 64500)
        queue.enqueue(make_change(make_rule(port=MAX_RULES_PER_PORT + 1)))
        records = manager.process_pending(now=1.0)
        assert records[0].status is DeploymentStatus.REJECTED_ADMISSION
        assert len(fabric.port_for_member(64500).rules()) == MAX_RULES_PER_PORT

    def test_update_at_rule_limit_applies(self):
        fabric = self._fabric()
        queue = ChangeQueue()
        manager = NetworkManager(fabric=fabric, change_queue=queue)
        installed = fill_port(fabric.router_for_member(64500), 64500)
        update = BlackholingRule(
            owner_asn=64500,
            dst_prefix=Prefix.parse("100.10.10.10/32"),
            action=RuleAction.SHAPE,
            protocol=IpProtocol.UDP,
            src_port=1,
            shape_rate_bps=2e8,
            rule_id=installed.rule_id,
        )
        queue.enqueue(make_change(update, change_type=ChangeType.UPDATE_RULE))
        queue.enqueue(make_change(make_rule(port=MAX_RULES_PER_PORT + 1)))
        update_record, add_record = manager.process_pending(now=1.0)
        assert update_record.status is DeploymentStatus.APPLIED
        assert add_record.status is DeploymentStatus.REJECTED_ADMISSION
        rules = {rule.rule_id: rule for rule in fabric.port_for_member(64500).rules()}
        assert len(rules) == MAX_RULES_PER_PORT
        assert rules[installed.rule_id].shape_rate_bps == 2e8

    def test_qos_manager_hardware_failure(self):
        fabric = SwitchingFabric()
        tiny = HardwareProfile(
            name="tiny", port_count=4, mac_filter_capacity=2, l3l4_criteria_capacity=3
        )
        fabric.add_edge_router(EdgeRouter("er-1", profile=tiny))
        fabric.connect_member(IxpMember(asn=64500))
        queue = ChangeQueue()
        manager = NetworkManager(fabric=fabric, change_queue=queue)
        # Fill the TCAM with one rule, then push an UPDATE for a different
        # rule (updates bypass admission rejection) so the install itself hits
        # the hardware limit.
        fabric.router_for_member(64500).install_rule(64500, make_rule(port=1).to_qos_rule())
        queue.enqueue(make_change(make_rule(port=2), change_type=ChangeType.UPDATE_RULE))
        records = manager.process_pending(now=1.0)
        assert records[0].status is DeploymentStatus.FAILED_HARDWARE

    def test_deployment_waiting_time(self):
        fabric = self._fabric()
        queue = ChangeQueue()
        manager = NetworkManager(fabric=fabric, change_queue=queue)
        queue.enqueue(make_change(enqueue_time=0.0))
        records = manager.process_pending(now=3.0)
        assert records[0].waiting_time == 3.0
