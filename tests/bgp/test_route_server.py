"""Tests for the route server's member sessions, the route server and Flowspec."""

import pytest

from oracle.mitigation import flowspec_matches
from oracle.records import FiveTuple, FlowRecord
from repro.bgp import (
    BgpSession,
    FlowspecActionType,
    ImportPolicy,
    PolicyControl,
    Prefix,
    RouteAnnouncement,
    RouteServer,
    UpdateMessage,
    announcement,
    drop_rule,
    rate_limit_rule,
    rtbh_community,
)
from repro.traffic import IpProtocol


def flow(dst_ip, src_port=0):
    """A UDP flow towards ``dst_ip`` for the scalar Flowspec matcher."""
    return FlowRecord(
        key=FiveTuple("23.1.1.1", dst_ip, IpProtocol.UDP, src_port, 40000),
        start=0.0,
        duration=10.0,
        bytes=1000,
        packets=1,
    )


class TestBgpSession:
    def test_deliver_records_the_update(self):
        session = BgpSession(peer_asn=2)
        update = UpdateMessage(sender_asn=1)
        session.deliver(update)
        assert session.updates == [update]


def _route_server(require_irr=False):
    if require_irr:
        policy = ImportPolicy()
        policy.irr.register("100.10.10.0/24", 64501)
        server = RouteServer(ixp_asn=64700, policy=policy)
    else:
        server = RouteServer(ixp_asn=64700)
    for asn in (64501, 64502, 64503):
        server.connect_member(asn)
    return server


class TestRouteServer:
    def test_member_cannot_use_ixp_asn(self):
        server = RouteServer(ixp_asn=64700)
        with pytest.raises(ValueError):
            server.connect_member(64700)

    def test_accepted_announcement_is_stored_and_propagated(self):
        server = _route_server()
        result = server.announce(announcement("100.10.10.0/24", 64501, next_hop="10.0.0.1"))
        assert result.accepted
        assert len(server.rib.routes_for(Prefix.parse("100.10.10.0/24"))) == 1
        # The other two members received the update; the sender did not.
        assert len(server.session_for(64502).updates) == 1
        assert len(server.session_for(64503).updates) == 1
        assert len(server.session_for(64501).updates) == 0

    def test_rejected_announcement_is_not_stored(self):
        server = _route_server(require_irr=True)
        result = server.announce(announcement("200.1.1.0/24", 64501, next_hop="10.0.0.1"))
        assert not result.accepted
        assert server.rib.routes_for(Prefix.parse("200.1.1.0/24")) == []

    def test_blackhole_next_hop_rewrite_towards_members(self):
        server = _route_server()
        route = announcement("100.10.10.10/32", 64501, next_hop="10.0.0.1")
        tagged = RouteAnnouncement(
            prefix=route.prefix,
            attributes=route.attributes.with_communities(rtbh_community(64700)),
        )
        server.announce(tagged)
        delivered = server.session_for(64502).updates[-1]
        assert delivered.announcements[0].attributes.next_hop == server.blackhole_next_hop

    def test_stellar_signals_are_not_reflected_to_members(self):
        from repro.bgp import ExtendedCommunity

        server = _route_server()
        route = announcement("100.10.10.10/32", 64501, next_hop="10.0.0.1")
        tagged = RouteAnnouncement(
            prefix=route.prefix,
            attributes=route.attributes.with_extended_communities(
                ExtendedCommunity(0x80, 0x01, 64700, (2 << 24) | 123)
            ),
        )
        southbound = []
        server.register_consumer(southbound.append)
        server.announce(tagged)
        assert len(server.session_for(64502).updates) == 0
        assert len(southbound) == 1

    def test_policy_control_except_list(self):
        server = _route_server()
        control = PolicyControl(announce_to_all=True, except_asns=frozenset({64502}))
        server.announce(
            announcement("100.10.10.0/24", 64501, next_hop="10.0.0.1"), control
        )
        assert len(server.session_for(64502).updates) == 0
        assert len(server.session_for(64503).updates) == 1

    def test_policy_control_only_list(self):
        server = _route_server()
        control = PolicyControl(announce_to_all=False, only_asns=frozenset({64503}))
        server.announce(
            announcement("100.10.10.0/24", 64501, next_hop="10.0.0.1"), control
        )
        assert len(server.session_for(64502).updates) == 0
        assert len(server.session_for(64503).updates) == 1

    def test_policy_control_categories(self):
        assert PolicyControl().category == "All"
        assert PolicyControl(except_asns=frozenset({1, 2})).category == "All-2"
        assert PolicyControl(announce_to_all=False, only_asns=frozenset({1, 2, 3})).category == "3"

    def test_implicit_withdraw_on_reannouncement(self):
        server = _route_server()
        server.announce(announcement("100.10.10.0/24", 64501, next_hop="10.0.0.1"))
        server.announce(announcement("100.10.10.0/24", 64501, next_hop="10.0.0.2"))
        routes = server.rib.routes_for(Prefix.parse("100.10.10.0/24"))
        assert len(routes) == 1
        assert routes[0].attributes.next_hop == "10.0.0.2"

    def test_withdrawal_removes_route_and_notifies(self):
        server = _route_server()
        server.announce(announcement("100.10.10.0/24", 64501, next_hop="10.0.0.1"))
        server.withdraw(Prefix.parse("100.10.10.0/24"), 64501)
        assert server.rib.routes_for(Prefix.parse("100.10.10.0/24")) == []
        last = server.session_for(64502).updates[-1]
        assert len(last.withdrawals) == 1

    def test_withdrawal_leaves_other_members_routes_for_the_prefix(self):
        server = _route_server()
        southbound = []
        server.register_consumer(southbound.append)
        server.announce(announcement("100.10.10.0/24", 64501, next_hop="10.0.0.1"))
        server.announce(announcement("100.10.10.0/24", 64502, next_hop="10.0.0.2"))
        kept_path_id = southbound[-1].announcements[0].path_id
        server.withdraw(Prefix.parse("100.10.10.0/24"), 64501)
        (route,) = server.rib.routes_for(Prefix.parse("100.10.10.0/24"))
        assert route.attributes.neighbor_asn == 64502
        # Southbound, only the withdrawing member's path id goes.
        (withdrawal,) = southbound[-1].withdrawals
        assert withdrawal.path_id != kept_path_id
        assert withdrawal.path_id == southbound[0].announcements[0].path_id

    def test_withdrawal_of_an_unannounced_prefix_sends_nothing(self):
        server = _route_server()
        southbound = []
        server.register_consumer(southbound.append)
        server.announce(announcement("100.10.10.0/24", 64501, next_hop="10.0.0.1"))
        server.withdraw(Prefix.parse("100.10.11.0/24"), 64501)
        server.withdraw(Prefix.parse("100.10.10.0/24"), 64502)
        assert len(southbound) == 1
        assert len(server.rib.routes_for(Prefix.parse("100.10.10.0/24"))) == 1
        assert len(server.session_for(64503).updates) == 1

    def test_reannouncement_withdraws_the_old_path_southbound(self):
        server = _route_server()
        southbound = []
        server.register_consumer(southbound.append)
        server.announce(announcement("100.10.10.0/24", 64501, next_hop="10.0.0.1"))
        server.announce(announcement("100.10.10.0/24", 64501, next_hop="10.0.0.2"))
        first, second = southbound
        (withdrawal,) = second.withdrawals
        assert withdrawal.path_id == first.announcements[0].path_id
        assert second.announcements[0].path_id != withdrawal.path_id

    def test_southbound_consumer_receives_all_paths(self):
        server = _route_server()
        southbound = []
        server.register_consumer(southbound.append)
        server.announce(announcement("100.10.10.0/24", 64501, next_hop="10.0.0.1"))
        server.announce(announcement("100.10.10.0/24", 64502, next_hop="10.0.0.2"))
        assert len(southbound) == 2
        path_ids = {update.announcements[0].path_id for update in southbound}
        assert len(path_ids) == 2

    def test_unknown_sender_is_auto_connected(self):
        server = _route_server()
        server.announce(announcement("100.10.10.0/24", 64999, next_hop="10.0.0.1"))
        assert 64999 in server.member_asns

    def test_announce_requires_as_path(self):
        server = _route_server()
        route = RouteAnnouncement(
            prefix=Prefix.parse("100.10.10.0/24"),
            attributes=__import__("repro.bgp", fromlist=["PathAttributes"]).PathAttributes(),
        )
        with pytest.raises(ValueError):
            server.announce(route)


class TestFlowspec:
    def test_drop_rule_matches_and_discards(self):
        rule = drop_rule("100.10.10.10/32", source_port=123, ip_protocol=17)
        assert rule.is_discard
        assert flowspec_matches(rule, flow("100.10.10.10", src_port=123))
        assert not flowspec_matches(rule, flow("100.10.10.10", src_port=53))
        assert not flowspec_matches(rule, flow("100.10.10.11", src_port=123))

    def test_rate_limit_rule(self):
        rule = rate_limit_rule("100.10.10.0/24", rate_bytes_per_second=1000.0)
        assert not rule.is_discard
        assert rule.actions[0].action_type is FlowspecActionType.TRAFFIC_RATE

    def test_rate_limit_rejects_negative(self):
        with pytest.raises(ValueError):
            rate_limit_rule("10.0.0.0/8", -1.0)

    def test_packet_length_match(self):
        from repro.bgp import FlowspecRule

        rule = FlowspecRule(packet_length_max=500)
        assert flowspec_matches(rule, flow("1.2.3.4"), packet_length=400)
        assert not flowspec_matches(rule, flow("1.2.3.4"), packet_length=900)
        assert not flowspec_matches(rule, flow("1.2.3.4"))

    def test_invalid_port_rejected(self):
        from repro.bgp import FlowspecRule

        with pytest.raises(ValueError):
            FlowspecRule(source_port=70000)
