"""Production-vs-reference parity of the mitigation data plane.

Every strategy's ``apply`` must agree with the naive per-record model in
``tests/oracle/mitigation.py`` on one seeded booter interval: same flows
in each bucket (delivered / discarded / shaped, compared as multisets of
fully materialised records), ``==`` bit accounting, and — for the
stochastic scrubber — the same seeded classification verdicts.
``tests/fuzz/test_mitigation_parity.py`` checks the same contract on
generated tables.
"""

import pytest

from oracle import mitigation as reference
from oracle.mitigation import assert_matches_reference
from oracle.records import to_records
from repro.bgp.flowspec import drop_rule, rate_limit_rule
from repro.bgp.prefix import parse_prefix
from repro.core.rules import BlackholingRule
from repro.ixp.qos import FlowMatch
from repro.experiments.scenario import build_attack_scenario
from repro.mitigation import (
    AccessControlList,
    AclEntry,
    AclMitigation,
    CombinedMitigation,
    FlowspecMitigation,
    FlowspecService,
    RtbhMitigation,
    RtbhService,
    ScrubbingCenter,
    ScrubbingMitigation,
)
from repro.traffic import FlowTable, IpProtocol

INTERVAL = 10.0
VICTIM_PREFIX = "100.10.10.10/32"


@pytest.fixture(scope="module")
def interval_table():
    """One seeded interval of booter-attack + benign traffic."""
    scenario = build_attack_scenario(peer_count=30, seed=3)
    return FlowTable.concat(
        [
            scenario.attack.flow_table(300.0, INTERVAL),
            scenario.benign.flow_table(300.0, INTERVAL),
        ]
    )


@pytest.fixture(scope="module")
def peer_asns():
    return [65000 + i for i in range(30)]


class TestRtbhParity:
    def test_partial_compliance(self, interval_table, peer_asns):
        service = RtbhService(ixp_asn=64700, compliance_rate=0.3, seed=9)
        service.request_blackhole(64500, VICTIM_PREFIX, peer_asns)
        outcome = RtbhMitigation(service).apply(interval_table, INTERVAL)
        assert_matches_reference(outcome, reference.rtbh(service, to_records(interval_table)))
        assert len(outcome.discarded_table) > 0  # the blackhole actually bit

    def test_most_specific_event_wins(self, interval_table, peer_asns):
        service = RtbhService(ixp_asn=64700, compliance_rate=1.0, seed=4)
        service.request_blackhole(64500, "100.10.10.0/24", peer_asns[:10])
        service.request_blackhole(64500, VICTIM_PREFIX, peer_asns[10:])
        outcome = RtbhMitigation(service).apply(interval_table, INTERVAL)
        assert_matches_reference(outcome, reference.rtbh(service, to_records(interval_table)))


class TestAclParity:
    def test_ordered_entries_first_match_wins(self, interval_table):
        acl = AccessControlList()
        # Permit one source port explicitly, deny the rest of UDP: order matters.
        acl.add(
            AclEntry(
                "permit",
                FlowMatch(
                    dst_prefix=parse_prefix(VICTIM_PREFIX),
                    protocol=IpProtocol.UDP,
                    src_port=53,
                ),
            )
        )
        acl.deny(VICTIM_PREFIX, protocol=IpProtocol.UDP)
        outcome = AclMitigation(acl).apply(interval_table, INTERVAL)
        assert_matches_reference(outcome, reference.acl(acl, to_records(interval_table)))
        assert len(outcome.discarded_table) > 0


class TestFlowspecParity:
    def test_discard_and_rate_limit_rules(self, interval_table, peer_asns):
        service = FlowspecService(acceptance_rate=0.5, seed=4)
        service.announce_rule(
            drop_rule(VICTIM_PREFIX, source_port=123, ip_protocol=int(IpProtocol.UDP)),
            peer_asns,
        )
        service.announce_rule(rate_limit_rule(VICTIM_PREFIX, 1e6), peer_asns)
        outcome = FlowspecMitigation(service).apply(interval_table, INTERVAL)
        expected = reference.flowspec(service, to_records(interval_table), INTERVAL)
        assert_matches_reference(outcome, expected)
        assert len(outcome.discarded_table) > 0
        assert len(outcome.shaped_table) > 0


class TestScrubbingParity:
    @pytest.mark.parametrize("capacity_bps", [500e9, 2e8])
    def test_same_seed_same_verdicts(self, interval_table, capacity_bps):
        center = ScrubbingCenter(capacity_bps=capacity_bps)
        mitigation = ScrubbingMitigation(center, active_since=-1e9, seed=7)
        scrubber = reference.ReferenceScrubber(center, active_since=-1e9, seed=7)
        outcome = mitigation.apply(interval_table, INTERVAL)
        assert_matches_reference(outcome, scrubber.apply(to_records(interval_table), INTERVAL))
        assert mitigation.scrubbed_bits_total == scrubber.scrubbed_bits_total

    def test_not_yet_effective_passes_everything(self, interval_table):
        mitigation = ScrubbingMitigation(active_since=1e9, seed=7)
        scrubber = reference.ReferenceScrubber(mitigation.center, active_since=1e9, seed=7)
        outcome = mitigation.apply(interval_table, INTERVAL)
        assert_matches_reference(outcome, scrubber.apply(to_records(interval_table), INTERVAL))
        assert outcome.delivered_bits == float(interval_table.total_bits)


class TestCombinedParity:
    def test_prefilter_plus_scrubbing_pipeline(self, interval_table):
        rules = [
            BlackholingRule.drop_udp_source_port(64500, VICTIM_PREFIX, 123),
            BlackholingRule.shape_udp_source_port(64500, VICTIM_PREFIX, 53, rate_bps=1e6),
        ]
        mitigation = CombinedMitigation(rules, ScrubbingMitigation(active_since=-1e9, seed=5))
        scrubber = reference.ReferenceScrubber(
            mitigation.scrubbing.center, active_since=-1e9, seed=5
        )
        result = mitigation.apply_detailed(interval_table, INTERVAL)
        expected = reference.combined(rules, scrubber, to_records(interval_table), INTERVAL)
        assert_matches_reference(result.outcome, expected.outcome)
        assert result.prefiltered_bits == expected.prefiltered_bits
        assert result.scrubbed_bits == expected.scrubbed_bits
        assert result.scrubbing_cost == expected.scrubbing_cost
        assert mitigation.total_scrubbing_cost == expected.scrubbing_cost
        assert result.prefiltered_bits > 0
