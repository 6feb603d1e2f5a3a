"""Tests for packet helpers, service ports and traffic profiles."""

import pytest

from oracle import trace as reference
from oracle.records import FiveTuple, FlowRecord, from_records
from repro.sim import make_rng
from repro.traffic import (
    IpProtocol,
    PacketTemplate,
    TrafficProfile,
    WellKnownPort,
    attack_profile,
    benign_web_profile,
    blackholed_traffic_profile,
    other_traffic_profile,
)


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


class TestIpProtocol:
    def test_from_name(self):
        assert IpProtocol.from_name("udp") is IpProtocol.UDP
        assert IpProtocol.from_name("TCP") is IpProtocol.TCP

    def test_from_name_unknown(self):
        with pytest.raises(ValueError):
            IpProtocol.from_name("quic")

    def test_values_match_iana(self):
        assert int(IpProtocol.TCP) == 6
        assert int(IpProtocol.UDP) == 17
        assert int(IpProtocol.ICMP) == 1


class TestPacketTemplate:
    def test_wire_bytes_include_headers(self):
        template = PacketTemplate(IpProtocol.UDP, 123, 40000, payload_bytes=400)
        assert template.wire_bytes > 400

    def test_minimum_frame_size(self):
        template = PacketTemplate(IpProtocol.UDP, 123, 40000, payload_bytes=1)
        assert template.wire_bytes >= 64

    def test_invalid_port(self):
        with pytest.raises(ValueError):
            PacketTemplate(IpProtocol.UDP, 70000, 0, 100)


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

    def test_normalised_sums_to_one(self):
        profile = blackholed_traffic_profile()
        assert sum(profile.normalised().values()) == pytest.approx(1.0)

    def test_blackholed_profile_is_udp_dominated(self):
        profile = blackholed_traffic_profile()
        assert profile.share_of_protocol(IpProtocol.UDP) > 0.99
        assert profile.share_of_protocol(IpProtocol.TCP) < 0.001

    def test_blackholed_profile_port_ranking(self):
        profile = blackholed_traffic_profile()
        assert profile.share_of_port(0) > profile.share_of_port(123) > profile.share_of_port(19)

    def test_other_profile_is_tcp_dominated(self):
        profile = other_traffic_profile()
        assert profile.share_of_protocol(IpProtocol.TCP) > 0.75

    def test_benign_web_profile_https_dominant(self):
        profile = benign_web_profile()
        assert profile.share_of_port(int(WellKnownPort.HTTPS)) > 0.4

    def test_attack_profile_single_port(self):
        profile = attack_profile("ntp")
        assert profile.share_of_port(123) == pytest.approx(1.0)

    def test_sample_class_draws_existing_class(self):
        profile = blackholed_traffic_profile()
        rng = make_rng(1)
        for _ in range(50):
            assert profile.sample_class(rng) in profile.shares

    def test_merged_with_weights(self):
        merged = benign_web_profile().merged_with(attack_profile("memcached"), other_weight=0.8)
        assert merged.share_of_port(11211) == pytest.approx(0.8, abs=0.01)

    def test_merged_with_invalid_weight(self):
        with pytest.raises(ValueError):
            benign_web_profile().merged_with(attack_profile("ntp"), 1.5)
