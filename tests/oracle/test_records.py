"""Tests for the oracle's record form of a flow.

The references build on :class:`~oracle.records.FlowRecord`'s scalar
helpers and on the table conversions, so those are pinned here.
"""

import pytest
from hypothesis import given, strategies as st

from oracle.records import FiveTuple, FlowRecord, from_records, to_records
from repro.traffic import IpProtocol
from repro.traffic.flowtable import derived_mac


def make_flow(src_port=123, dst_port=40000, protocol=IpProtocol.UDP, bytes_=1000,
              is_attack=False, ingress=65001, start=0.0, duration=10.0):
    return FlowRecord(
        key=FiveTuple("23.1.2.3", "100.10.10.10", protocol, src_port, dst_port),
        start=start,
        duration=duration,
        bytes=bytes_,
        packets=max(1, bytes_ // 1000),
        ingress_member_asn=ingress,
        egress_member_asn=64500,
        is_attack=is_attack,
    )


class TestFlowRecord:
    def test_accessors(self):
        flow = make_flow()
        assert flow.src_ip == "23.1.2.3"
        assert flow.dst_ip == "100.10.10.10"
        assert flow.src_port == 123
        assert flow.protocol is IpProtocol.UDP
        assert flow.end == 10.0
        assert flow.bits == 8000

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            make_flow(bytes_=-1)
        with pytest.raises(ValueError):
            FlowRecord(key=make_flow().key, start=0, duration=-1, bytes=1, packets=1)

    @pytest.mark.parametrize("asn", [0, 1, 65001, 65536 + 300, 2_100_000_000])
    def test_src_mac_is_the_ingress_members(self, asn):
        assert make_flow(ingress=asn).src_mac == derived_mac(asn)

    def test_scaled_halves_bytes(self):
        flow = make_flow(bytes_=1000)
        scaled = flow.scaled(0.5)
        assert scaled.bytes == 500
        assert scaled.packets >= 1

    def test_scaled_zero(self):
        scaled = make_flow(bytes_=1000).scaled(0.0)
        assert scaled.bytes == 0
        assert scaled.packets == 0

    def test_scaled_rejects_negative(self):
        with pytest.raises(ValueError):
            make_flow().scaled(-0.5)

    def test_overlaps(self):
        flow = make_flow(start=10, duration=10)
        assert flow.overlaps(15, 25)
        assert flow.overlaps(0, 11)
        assert not flow.overlaps(20, 30)
        assert not flow.overlaps(0, 10)

    @given(st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=1, max_value=10**9))
    def test_property_scaling_never_exceeds_original(self, factor, size):
        flow = make_flow(bytes_=size)
        assert flow.scaled(factor).bytes <= flow.bytes


class TestTableConversion:
    def test_records_to_table_to_records_is_lossless(self):
        records = [
            make_flow(src_port=11211, bytes_=8000, is_attack=True, start=0),
            make_flow(src_port=50000, dst_port=443, protocol=IpProtocol.TCP, bytes_=2000),
            make_flow(src_port=0, dst_port=4000, bytes_=500, ingress=65002),
        ]
        assert to_records(from_records(records)) == records

    def test_empty(self):
        assert to_records(from_records([])) == []
        assert len(from_records([])) == 0
