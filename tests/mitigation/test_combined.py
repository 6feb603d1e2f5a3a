"""Tests for the §6 extension: Advanced Blackholing combined with scrubbing."""

import pytest

from oracle.records import FiveTuple, FlowRecord, from_records, to_records
from repro.core import BlackholingRule
from repro.mitigation import (
    CombinedMitigation,
    ScrubbingCenter,
    ScrubbingMitigation,
    scrubbing_cost_saving,
)
from repro.traffic import FlowTable, IpProtocol


def make_flow(src_port=123, is_attack=True, bytes_=1_000_000, protocol=IpProtocol.UDP):
    return FlowRecord(
        key=FiveTuple("23.1.1.1", "100.10.10.10", protocol, src_port, 40000),
        start=10.0,
        duration=10.0,
        bytes=bytes_,
        packets=100,
        ingress_member_asn=65001,
        egress_member_asn=64500,
        is_attack=is_attack,
    )


def table_of(*flows):
    return from_records(flows)


def perfect_scrubber():
    return ScrubbingMitigation(
        ScrubbingCenter(
            true_positive_rate=1.0, false_positive_rate=0.0, activation_delay_seconds=0.0
        ),
        active_since=0.0,
        seed=1,
    )


VICTIM = "100.10.10.10/32"
NTP_RULE = BlackholingRule.drop_udp_source_port(64500, VICTIM, 123)


class TestCombinedMitigation:
    def test_prefilter_drops_known_signature_without_scrubbing_cost(self):
        combined = CombinedMitigation([NTP_RULE], perfect_scrubber())
        result = combined.apply_detailed(table_of(make_flow()), interval=10.0)
        assert result.prefiltered_bits == 8_000_000
        assert result.scrubbed_bits == 0
        assert result.scrubbing_cost == 0.0
        assert len(result.outcome.delivered_table) == 0

    def test_unknown_attack_still_handled_by_scrubber(self):
        combined = CombinedMitigation([NTP_RULE], perfect_scrubber())
        unknown = make_flow(src_port=53)
        result = combined.apply_detailed(table_of(unknown), interval=10.0)
        assert result.prefiltered_bits == 0
        assert result.scrubbed_bits == unknown.bits
        assert result.scrubbing_cost > 0
        assert unknown in to_records(result.outcome.discarded_table)

    def test_legitimate_traffic_is_delivered(self):
        combined = CombinedMitigation([NTP_RULE], perfect_scrubber())
        benign = make_flow(src_port=51000, is_attack=False, protocol=IpProtocol.TCP)
        outcome = combined.apply(table_of(make_flow(), benign), interval=10.0)
        assert benign in to_records(outcome.delivered_table)
        assert outcome.collateral_damage_bits == 0

    def test_shape_prefilter_forwards_bounded_sample_to_scrubber(self):
        shape_rule = BlackholingRule.shape_udp_source_port(64500, VICTIM, 123, rate_bps=100_000.0)
        combined = CombinedMitigation([shape_rule], perfect_scrubber())
        result = combined.apply_detailed(table_of(make_flow()), interval=10.0)
        # 1 Mbit/s offered, shaped to 100 kbit/s: the sample goes to the
        # scrubber, the excess is pre-filtered at the IXP.
        assert result.scrubbed_bits == pytest.approx(100_000.0 * 10.0, rel=0.01)
        assert result.prefiltered_bits == pytest.approx(8_000_000 - 1_000_000, rel=0.01)

    def test_add_rule_extends_prefilters(self):
        combined = CombinedMitigation([], perfect_scrubber())
        flow = make_flow()
        assert combined.apply_detailed(table_of(flow), interval=10.0).prefiltered_bits == 0
        combined.add_rule(NTP_RULE)
        assert combined.apply_detailed(table_of(flow), interval=10.0).prefiltered_bits == flow.bits

    def test_cumulative_accounting(self):
        combined = CombinedMitigation([NTP_RULE], perfect_scrubber())
        combined.apply_detailed(table_of(make_flow(), make_flow(src_port=53)), interval=10.0)
        combined.apply_detailed(table_of(make_flow()), interval=10.0)
        assert combined.total_prefiltered_bits == 2 * 8_000_000
        assert combined.total_scrubbing_cost > 0

    def test_most_specific_prefilter_claims_overlapping_traffic(self):
        # Drop all UDP, but shape NTP: the NTP flow matches both rules and
        # the more specific shaping rule wins, so a sample of it is scrubbed.
        all_udp = BlackholingRule.drop_protocol(64500, VICTIM, IpProtocol.UDP)
        shape_ntp = BlackholingRule.shape_udp_source_port(64500, VICTIM, 123, rate_bps=100_000.0)
        combined = CombinedMitigation([all_udp, shape_ntp], perfect_scrubber())
        ntp, dns = make_flow(), make_flow(src_port=53)
        result = combined.apply_detailed(table_of(ntp, dns), interval=10.0)
        assert result.scrubbed_bits == pytest.approx(100_000.0 * 10.0, rel=0.01)
        assert result.prefiltered_bits == pytest.approx(
            dns.bits + ntp.bits - 100_000.0 * 10.0, rel=0.01
        )

    def test_empty_interval_costs_nothing(self):
        combined = CombinedMitigation([NTP_RULE], perfect_scrubber())
        result = combined.apply_detailed(FlowTable.empty(), interval=10.0)
        assert (result.prefiltered_bits, result.scrubbed_bits, result.scrubbing_cost) == (0, 0, 0)
        assert len(result.outcome.delivered_table) == 0

    def test_invalid_interval(self):
        combined = CombinedMitigation([NTP_RULE], perfect_scrubber())
        with pytest.raises(ValueError):
            combined.apply_detailed(FlowTable.empty(), interval=0)


class TestScrubbingCostSaving:
    def test_prefilters_reduce_scrubbing_cost(self):
        flows = table_of(
            *[make_flow() for _ in range(8)],
            *[make_flow(src_port=51000, is_attack=False, protocol=IpProtocol.TCP)] * 2,
        )
        saving = scrubbing_cost_saving(
            flows,
            interval=10.0,
            prefilter_rules=[NTP_RULE],
            scrubbing=perfect_scrubber(),
            scrubbing_alone=perfect_scrubber(),
        )
        assert saving["cost_combined"] < saving["cost_alone"]
        # 80 % of the bytes carry the known NTP signature, so roughly 80 % of
        # the scrubbing bill disappears.
        assert saving["cost_saving_fraction"] == pytest.approx(0.8, abs=0.05)
        assert saving["prefiltered_bits"] == pytest.approx(8 * 8_000_000)

    def test_no_rules_means_no_saving(self):
        flows = table_of(make_flow())
        saving = scrubbing_cost_saving(
            flows,
            interval=10.0,
            prefilter_rules=[],
            scrubbing=perfect_scrubber(),
            scrubbing_alone=perfect_scrubber(),
        )
        assert saving["cost_saving_fraction"] == pytest.approx(0.0)

    def test_empty_traffic_saves_nothing(self):
        saving = scrubbing_cost_saving(
            FlowTable.empty(),
            interval=10.0,
            prefilter_rules=[NTP_RULE],
            scrubbing=perfect_scrubber(),
            scrubbing_alone=perfect_scrubber(),
        )
        assert saving["cost_alone"] == saving["cost_combined"] == 0.0
        assert saving["cost_saving_fraction"] == 0.0
