"""Hand-computed cases that pin the naive mitigation references themselves.

The mitigation parity tests trust :mod:`oracle.mitigation`; these cases
check it against numbers worked out by hand so a bug in a reference
cannot pass silently.
"""

from oracle import mitigation as reference
from oracle.records import FiveTuple, FlowRecord
from repro.bgp.flowspec import rate_limit_rule
from repro.core.rules import BlackholingRule
from repro.ixp.qos import FlowMatch
from repro.mitigation import (
    AccessControlList,
    AclEntry,
    FlowspecService,
    RtbhService,
    ScrubbingCenter,
)
from repro.traffic import IpProtocol

INTERVAL = 10.0
VICTIM = "100.10.10.10"


def flow(bytes_=10_000, src_port=123, dst_ip=VICTIM, ingress=65001, is_attack=True):
    return FlowRecord(
        key=FiveTuple("23.1.1.1", dst_ip, IpProtocol.UDP, src_port, 40000),
        start=0.0,
        duration=INTERVAL,
        bytes=bytes_,
        packets=10,
        ingress_member_asn=ingress,
        egress_member_asn=64500,
        is_attack=is_attack,
    )


def test_rtbh_most_specific_event_decides():
    service = RtbhService(ixp_asn=64700, member_compliance={65001: True, 65002: True})
    service.request_blackhole(64500, "100.10.10.0/24", peer_asns=[65001])
    service.request_blackhole(64500, f"{VICTIM}/32", peer_asns=[65002])
    # The /32 covers the victim and only 65002 honours it; the /24 covers
    # the neighbour, where 65001 honours it.
    flows = [flow(ingress=65001), flow(ingress=65002), flow(dst_ip="100.10.10.99")]
    outcome = reference.rtbh(service, flows)
    assert outcome.delivered == [flows[0]]
    assert outcome.discarded == flows[1:]


def test_acl_first_match_and_implicit_permit():
    acl = AccessControlList()
    acl.add(AclEntry("permit", FlowMatch(src_port=53)))
    acl.deny(f"{VICTIM}/32", protocol=IpProtocol.UDP)
    flows = [flow(src_port=53), flow(src_port=123), flow(dst_ip="9.9.9.9")]
    outcome = reference.acl(acl, flows)
    assert outcome.discarded == [flows[1]]
    assert outcome.delivered == [flows[0], flows[2]]


def test_flowspec_rate_limit_scales_the_rule_group_to_its_budget():
    service = FlowspecService(peer_acceptance={65001: True})
    service.announce_rule(rate_limit_rule(f"{VICTIM}/32", 100.0), peer_asns=[65001])
    # 100 B/s x 10 s = 1,000 bytes for 10,000 offered: every flow x 0.1.
    outcome = reference.flowspec(service, [flow(6_000), flow(4_000)], INTERVAL)
    assert [f.bytes for f in outcome.shaped] == [600, 400]
    assert outcome.delivered_bits == 8_000.0
    assert outcome.delivered_peers == {65001}


def test_scrubber_overflow_keeps_the_admitted_share_and_drops_the_rest():
    center = ScrubbingCenter(
        capacity_bps=1_000.0,
        true_positive_rate=0.0,
        false_positive_rate=0.0,
        activation_delay_seconds=0.0,
    )
    scrubber = reference.ReferenceScrubber(center, active_since=0.0, seed=1)
    # 10,000 bits of capacity for 160,000 offered: each flow x 0.0625.
    outcome = scrubber.apply([flow(), flow(is_attack=False)], INTERVAL)
    assert [f.bytes for f in outcome.shaped] == [625, 625]
    assert [f.bytes for f in outcome.discarded] == [9_375, 9_375]
    assert scrubber.scrubbed_bits_total == 10_000.0


def test_scrubber_is_inactive_before_its_activation_delay():
    scrubber = reference.ReferenceScrubber(ScrubbingCenter(), active_since=0.0, seed=1)
    flows = [flow()]
    assert scrubber.apply(flows, INTERVAL).delivered == flows
    assert scrubber.scrubbed_bits_total == 0.0


def test_combined_shapes_a_sample_to_the_scrubber_and_prefilters_the_excess():
    rule = BlackholingRule.shape_udp_source_port(64500, f"{VICTIM}/32", 123, rate_bps=1e5)
    center = ScrubbingCenter(
        true_positive_rate=0.0, false_positive_rate=0.0, activation_delay_seconds=0.0
    )
    scrubber = reference.ReferenceScrubber(center, active_since=0.0, seed=1)
    # 1e5 b/s x 10 s = 1e6 bits of an 8e6-bit flow: x 0.125 to the scrubber.
    result = reference.combined([rule], scrubber, [flow(1_000_000)], INTERVAL)
    assert result.scrubbed_bits == 1e6
    assert result.prefiltered_bits == 7e6
    assert [f.bytes for f in result.outcome.delivered] == [125_000]
    assert result.scrubbing_cost == 1e6 / 8 / 1e9 * center.cost_per_scrubbed_gbyte
