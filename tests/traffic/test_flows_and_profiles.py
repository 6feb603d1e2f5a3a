"""Tests for protocol numbers, service ports and traffic profiles."""

import pytest

from oracle import trace as reference
from oracle.records import FiveTuple, FlowRecord, from_records
from repro.sim import make_rng
from repro.traffic import (
    IpProtocol,
    TrafficProfile,
    WellKnownPort,
    benign_web_profile,
    blackholed_traffic_profile,
    other_traffic_profile,
)
from repro.traffic.flowtable import group_sum


def make_flow(
    src_port=123,
    dst_port=40000,
    protocol=IpProtocol.UDP,
    bytes_=1000,
    is_attack=False,
    ingress=65001,
    dst_ip="100.10.10.10",
    start=0.0,
    duration=10.0,
):
    return FlowRecord(
        key=FiveTuple("23.1.2.3", dst_ip, protocol, src_port, dst_port),
        start=start,
        duration=duration,
        bytes=bytes_,
        packets=max(1, bytes_ // 1000),
        ingress_member_asn=ingress,
        egress_member_asn=64500,
        is_attack=is_attack,
    )


def profile_share(profile, protocol=None, port=None):
    """A profile's byte share of one protocol and/or source port."""
    total = sum(profile.shares.values())
    matching = sum(
        share
        for (proto, src_port), share in profile.shares.items()
        if protocol in (None, proto) and port in (None, src_port)
    )
    return matching / total


def service_port_shares(table):
    """Byte share per service port of a flow table."""
    totals = group_sum(table.service_ports(), table.bytes)
    grand_total = sum(totals.values())
    return {port: volume / grand_total for port, volume in totals.items()}


class TestIpProtocol:
    def test_values_match_iana(self):
        assert int(IpProtocol.TCP) == 6
        assert int(IpProtocol.UDP) == 17
        assert int(IpProtocol.ICMP) == 1


def service_ports(flow):
    """The flow's service port from the table column and from the reference."""
    column = from_records([flow]).service_ports()
    return int(column[0]), reference.service_port(flow)


class TestServicePort:
    def test_attack_flow_uses_source_port(self):
        assert service_ports(make_flow(src_port=11211, dst_port=43210)) == (11211, 11211)

    def test_web_flow_uses_destination_port(self):
        flow = make_flow(src_port=51000, dst_port=443, protocol=IpProtocol.TCP)
        assert service_ports(flow) == (443, 443)

    def test_port_zero_is_its_own_class(self):
        assert service_ports(make_flow(src_port=0, dst_port=4000)) == (0, 0)

    def test_two_ephemeral_ports_take_minimum(self):
        assert service_ports(make_flow(src_port=50001, dst_port=60001)) == (50001, 50001)


class TestProfiles:
    def test_profile_requires_classes(self):
        with pytest.raises(ValueError):
            TrafficProfile(name="empty", shares={})

    def test_profile_rejects_negative_shares(self):
        with pytest.raises(ValueError):
            TrafficProfile(name="bad", shares={(IpProtocol.UDP, 0): -1.0})

    def test_blackholed_profile_is_udp_dominated(self):
        profile = blackholed_traffic_profile()
        assert profile_share(profile, protocol=IpProtocol.UDP) > 0.99
        assert profile_share(profile, protocol=IpProtocol.TCP) < 0.001

    def test_blackholed_profile_port_ranking(self):
        profile = blackholed_traffic_profile()
        assert profile_share(profile, port=0) > profile_share(profile, port=123)
        assert profile_share(profile, port=123) > profile_share(profile, port=19)

    def test_other_profile_is_tcp_dominated(self):
        profile = other_traffic_profile()
        assert profile_share(profile, protocol=IpProtocol.TCP) > 0.75

    def test_benign_web_profile_https_dominant(self):
        profile = benign_web_profile()
        assert profile_share(profile, port=int(WellKnownPort.HTTPS)) > 0.4

    def test_sample_classes_draw_existing_classes(self):
        profile = blackholed_traffic_profile()
        protocols, ports = profile.sample_classes(make_rng(1), 50)
        for protocol, port in zip(protocols.tolist(), ports.tolist()):
            assert (IpProtocol(protocol), port) in profile.shares
