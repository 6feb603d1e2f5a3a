"""Tests for BGP sessions, the route server and Flowspec."""

import pytest

from oracle.mitigation import flowspec_matches
from oracle.records import FiveTuple, FlowRecord
from repro.bgp import (
    BgpSession,
    FlowspecActionType,
    FlowspecComponentType,
    ImportPolicy,
    OpenMessage,
    PolicyControl,
    Prefix,
    RouteAnnouncement,
    RouteServer,
    SessionError,
    SessionState,
    SessionType,
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
    def test_ebgp_requires_distinct_asns(self):
        with pytest.raises(ValueError):
            BgpSession(local_asn=1, peer_asn=1)

    def test_ibgp_requires_same_asn(self):
        with pytest.raises(ValueError):
            BgpSession(local_asn=1, peer_asn=2, session_type=SessionType.IBGP)

    def test_deliver_requires_established(self):
        session = BgpSession(local_asn=1, peer_asn=2)
        with pytest.raises(SessionError):
            session.deliver(UpdateMessage(sender_asn=2))

    def test_open_and_deliver(self):
        received = []
        session = BgpSession(local_asn=1, peer_asn=2, on_update=received.append)
        session.open()
        update = UpdateMessage(sender_asn=2)
        session.deliver(update)
        assert received == [update]
        assert session.updates_received == 1

    def test_addpath_negotiation_requires_both_sides(self):
        session = BgpSession(local_asn=1, peer_asn=2, add_path=True)
        session.open(OpenMessage(sender_asn=2, add_path=False))
        assert session.add_path is False

    def test_close_prevents_reopen(self):
        session = BgpSession(local_asn=1, peer_asn=2)
        session.open()
        session.close()
        assert session.state is SessionState.CLOSED
        with pytest.raises(SessionError):
            session.open()

    def test_keepalive_counts(self):
        session = BgpSession(local_asn=1, peer_asn=2)
        session.open()
        session.keepalive()
        assert session.keepalives_received == 1


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
        assert len(server.rib) == 1
        # The other two members received the update; the sender did not.
        assert server.session_for(64502).updates_received == 1
        assert server.session_for(64503).updates_received == 1
        assert server.session_for(64501).updates_received == 0

    def test_rejected_announcement_is_logged(self):
        server = _route_server(require_irr=True)
        result = server.announce(announcement("200.1.1.0/24", 64501, next_hop="10.0.0.1"))
        assert not result.accepted
        assert len(server.rejections()) == 1
        assert len(server.rib) == 0

    def test_blackhole_next_hop_rewrite_towards_members(self):
        server = _route_server()
        route = announcement("100.10.10.10/32", 64501, next_hop="10.0.0.1")
        tagged = RouteAnnouncement(
            prefix=route.prefix,
            attributes=route.attributes.with_communities(rtbh_community(64700)),
        )
        server.announce(tagged)
        delivered = server.session_for(64502).history[-1]
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
        assert server.session_for(64502).updates_received == 0
        assert len(southbound) == 1

    def test_policy_control_except_list(self):
        server = _route_server()
        control = PolicyControl(announce_to_all=True, except_asns=frozenset({64502}))
        server.announce(
            announcement("100.10.10.0/24", 64501, next_hop="10.0.0.1"), control
        )
        assert server.session_for(64502).updates_received == 0
        assert server.session_for(64503).updates_received == 1

    def test_policy_control_only_list(self):
        server = _route_server()
        control = PolicyControl(announce_to_all=False, only_asns=frozenset({64503}))
        server.announce(
            announcement("100.10.10.0/24", 64501, next_hop="10.0.0.1"), control
        )
        assert server.session_for(64502).updates_received == 0
        assert server.session_for(64503).updates_received == 1

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
        assert len(server.rib) == 0
        last = server.session_for(64502).history[-1]
        assert len(last.withdrawals) == 1

    def test_southbound_consumer_receives_all_paths(self):
        server = _route_server()
        southbound = []
        server.register_consumer(southbound.append)
        server.announce(announcement("100.10.10.0/24", 64501, next_hop="10.0.0.1"))
        server.announce(announcement("100.10.10.0/24", 64502, next_hop="10.0.0.2"))
        assert len(southbound) == 2
        path_ids = {update.announcements[0].path_id for update in southbound}
        assert len(path_ids) == 2

    def test_disconnect_member_flushes_routes(self):
        server = _route_server()
        server.announce(announcement("100.10.10.0/24", 64501, next_hop="10.0.0.1"))
        removed = server.disconnect_member(64501)
        assert removed == 1
        assert 64501 not in server.member_asns

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

    def test_components_listing(self):
        rule = drop_rule("100.10.10.10/32", source_port=123, ip_protocol=17)
        components = rule.components()
        assert FlowspecComponentType.DEST_PREFIX in components
        assert FlowspecComponentType.SOURCE_PORT in components
        assert FlowspecComponentType.IP_PROTOCOL in components

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
