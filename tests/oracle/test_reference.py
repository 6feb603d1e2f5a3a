"""Hand-computed cases that pin the naive reference itself.

Every parity test trusts :mod:`oracle.reference`; these cases check it
against numbers worked out by hand (and, for good measure, against the
production fabric) so a bug in the reference cannot pass silently.
"""

import pytest

from fuzz.strategies import single_port_fabric
from oracle.records import FiveTuple, FlowRecord, from_records
from oracle.reference import ReferenceFabric, assign
from repro.ixp import FilterAction, FlowMatch, QosRule
from repro.traffic import IpProtocol
from repro.traffic.flowtable import derived_mac

INTERVAL = 10.0
ASN = 64500


def flow(bytes_=1000, src_port=123, ingress=65001):
    return FlowRecord(
        key=FiveTuple("23.1.1.1", "10.1.0.1", IpProtocol.UDP, src_port, 50000),
        start=0.0,
        duration=INTERVAL,
        bytes=bytes_,
        packets=10,
        ingress_member_asn=ingress,
        egress_member_asn=ASN,
    )


def member_report(forwarded=0.0, dropped=0.0, passed=0.0, shaped_away=0.0,
                  congestion=0.0, rule_stats=None):
    return {
        "forwarded_bits": forwarded,
        "dropped_bits": dropped,
        "shaped_passed_bits": passed,
        "shaped_dropped_bits": shaped_away,
        "congestion_dropped_bits": congestion,
        "rule_stats": rule_stats or {},
    }


def check(fabric, table, expected_member, offered):
    """The reference equals the hand-computed report, and so does production."""
    expected = {
        "interval_start": 0.0,
        "interval": INTERVAL,
        "offered_bits": offered,
        "delivered_bits": expected_member["forwarded_bits"]
        + expected_member["shaped_passed_bits"],
        "filtered_bits": expected_member["dropped_bits"] + expected_member["shaped_dropped_bits"],
        "congestion_dropped_bits": expected_member["congestion_dropped_bits"],
        "members": {str(ASN): expected_member},
    }
    assert ReferenceFabric(fabric).deliver(table, INTERVAL) == expected
    assert fabric.deliver(table, INTERVAL).to_dict() == expected


@pytest.mark.parametrize("first", ["ntp-drop", "dport-shape"])
def test_equal_specificity_tie_goes_to_the_first_installed(first):
    """Both one-criterion rules score 1000; install order breaks the tie."""
    fabric, port = single_port_fabric()
    rules = {
        "ntp-drop": QosRule(FlowMatch(src_port=123), FilterAction.DROP, rule_id="ntp-drop"),
        "dport-shape": QosRule(
            FlowMatch(dst_port=50000), FilterAction.SHAPE, shape_rate_bps=1e9,
            rule_id="dport-shape",
        ),
    }
    second = "dport-shape" if first == "ntp-drop" else "ntp-drop"
    port.qos.install(rules[first])
    port.qos.install(rules[second])
    table = from_records([flow(bytes_=1000)])
    assert assign(port.qos, table).tolist() == [0]
    if first == "ntp-drop":
        stats = {"ntp-drop": {"matched": 8000.0, "dropped": 8000.0, "shaped": 0.0}}
        expected = member_report(dropped=8000.0, rule_stats=stats)
    else:
        stats = {"dport-shape": {"matched": 8000.0, "dropped": 0.0, "shaped": 8000.0}}
        expected = member_report(passed=8000.0, rule_stats=stats)
    check(fabric, table, expected, offered=8000.0)


def test_anonymous_shape_rule_is_keyed_by_its_synthetic_id():
    """1e5 bps x 10 s passes 1e6 of 8e7 bits; the flow scales by 1/80."""
    fabric, port = single_port_fabric()
    port.qos.install(QosRule(FlowMatch(src_port=123), FilterAction.SHAPE, shape_rate_bps=1e5))
    table = from_records([flow(bytes_=10_000_000)])
    stats = {"anon-1": {"matched": 1e6, "dropped": 0.0, "shaped": 1e6}}
    expected = member_report(passed=1e6, shaped_away=7.9e7, rule_stats=stats)
    check(fabric, table, expected, offered=8e7)


def test_derived_mac_rule_matches_the_ingress_member():
    """A row's MAC is the derived MAC of its ingress member."""
    fabric, port = single_port_fabric()
    port.qos.install(
        QosRule(FlowMatch(src_mac=derived_mac(65002)), FilterAction.DROP, rule_id="peer")
    )
    table = from_records([flow(bytes_=100, ingress=65001), flow(bytes_=200, ingress=65002)])
    assert assign(port.qos, table).tolist() == [-1, 0]
    stats = {"peer": {"matched": 1600.0, "dropped": 1600.0, "shaped": 0.0}}
    check(fabric, table, member_report(800.0, dropped=1600.0, rule_stats=stats), offered=2400.0)


def test_congestion_scales_forwarded_traffic_to_the_port_capacity():
    """8e7 bits offered to a 1 Mbps port over 10 s: 1e7 fit, 7e7 are lost."""
    fabric, _ = single_port_fabric(port_capacity_bps=1e6)
    table = from_records([flow(bytes_=10_000_000)])
    check(fabric, table, member_report(forwarded=1e7, congestion=7e7), offered=8e7)


def test_shaping_rounds_per_flow_and_congestion_scales_what_passed():
    """Three 40-bit flows shaped to 40 bits (scale 1/3) beside 800 forwarded
    bits on a 10 bps port: the scaled flows round 5/3 -> 2 bytes each (48
    bits of rule stats), and congestion scales forward and shaped alike."""
    fabric, port = single_port_fabric(port_capacity_bps=10.0)
    port.qos.install(QosRule(FlowMatch(src_port=123), FilterAction.SHAPE, shape_rate_bps=4.0,
                             rule_id="s"))
    flows = [flow(bytes_=5)] * 3 + [flow(bytes_=100, src_port=53)]
    overload = 100.0 / 840.0
    stats = {"s": {"matched": 48.0, "dropped": 0.0, "shaped": 48.0}}
    expected = member_report(forwarded=800.0 * overload, passed=40.0 * overload,
                             shaped_away=80.0, congestion=740.0, rule_stats=stats)
    check(fabric, from_records(flows), expected, offered=920.0)


def test_verdict_records_and_shaper_reset():
    fabric, port = single_port_fabric()
    rule = QosRule(FlowMatch(src_port=123), FilterAction.SHAPE, shape_rate_bps=1e5,
                   rule_id="s")
    port.qos.install(rule)
    oracle = ReferenceFabric(fabric)
    table = from_records([flow(bytes_=10_000_000), flow(src_port=53)])
    oracle.deliver(table, INTERVAL)
    forwarded, dropped, shaped = oracle.verdicts[ASN]
    assert [record.key.src_port for record in forwarded] == [53]
    assert dropped == []
    assert [record.bytes for record in shaped] == [125_000]
    assert list(oracle._limiters) == [(ASN, "s")]
    oracle.forget(ASN, {"s"})
    assert oracle._limiters == {}
    assert oracle.counters[ASN]["offered_bits"] == 10_001_000 * 8
