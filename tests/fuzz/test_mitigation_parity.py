"""Property tests: every mitigation strategy against the naive reference.

Each strategy's ``apply`` on a generated :func:`fuzz.strategies.flow_tables`
interval must equal the per-record model in ``tests/oracle/mitigation.py``
with ``==``: the same flows in every bucket and the same accounting.
Configurations draw from the strategy library's host / port / ingress
pools, so blackholes, ACL entries, Flowspec rules and pre-filters hit,
miss and shadow the generated rows.
"""

import math

from hypothesis import given, strategies as st

from fuzz.strategies import (
    BROAD_PREFIXES,
    INGRESS_ASNS,
    flow_tables,
    hosts,
    ingress_asns,
    l4_protocols,
    pool_ports,
)
from oracle import mitigation as reference
from oracle.mitigation import assert_matches_reference
from oracle.records import to_records
from repro.bgp import Prefix
from repro.bgp.flowspec import FlowspecAction, FlowspecActionType, FlowspecRule
from repro.core.rules import BlackholingRule
from repro.ixp.qos import FilterAction, FlowMatch
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
from repro.traffic.flowtable import derived_mac

VICTIM_ASN = 64500

intervals = st.sampled_from([0.5, 10.0, 60.0])
seeds = st.integers(min_value=0, max_value=2**31 - 1)
prefixes = st.one_of(
    hosts.map(lambda host: Prefix.parse(f"{host}/32")),
    st.sampled_from(BROAD_PREFIXES).map(Prefix.parse),
)
peer_sets = st.sets(ingress_asns)


def optional(strategy):
    return st.none() | strategy


def compliance():
    return st.fixed_dictionaries({asn: st.booleans() for asn in INGRESS_ASNS})


@st.composite
def rtbh_services(draw):
    service = RtbhService(ixp_asn=64700, member_compliance=draw(compliance()))
    for prefix, peers in draw(st.lists(st.tuples(prefixes, peer_sets), max_size=4)):
        service.request_blackhole(VICTIM_ASN, prefix, sorted(peers))
    return service


@st.composite
def access_lists(draw):
    acl = AccessControlList()
    for _ in range(draw(st.integers(0, 5))):
        acl.add(
            AclEntry(
                draw(st.sampled_from(["permit", "deny"])),
                FlowMatch(
                    dst_prefix=draw(optional(prefixes)),
                    src_prefix=draw(optional(prefixes)),
                    protocol=draw(optional(l4_protocols)),
                    src_port=draw(optional(pool_ports)),
                    dst_port=draw(optional(pool_ports)),
                ),
            )
        )
    return acl


#: Actions that do not filter: the model has no DSCP or VRF.
_PASSING_ACTIONS = [
    (FlowspecAction(FlowspecActionType.TRAFFIC_MARKING),),
    (FlowspecAction(FlowspecActionType.REDIRECT, redirect_target="65000:1"),),
    (),
]


@st.composite
def flowspec_rules(draw):
    # Rate 0 is a discard; a length-bounded rule never matches a flow; a
    # rule without a traffic-rate action passes what it matches.  Any
    # 8-bit protocol number is a valid match (47 is GRE, absent from the
    # tables).
    rate = draw(st.sampled_from([0.0, 0.0, 50.0, 1e3, 1e5]))
    actions = draw(
        st.sampled_from(
            [(FlowspecAction(FlowspecActionType.TRAFFIC_RATE, rate),)] * 3 + _PASSING_ACTIONS
        )
    )
    return FlowspecRule(
        dest_prefix=draw(optional(prefixes)),
        source_prefix=draw(optional(prefixes)),
        ip_protocol=draw(optional(st.one_of(l4_protocols.map(int), st.just(47)))),
        source_port=draw(optional(pool_ports)),
        dest_port=draw(optional(pool_ports)),
        packet_length_max=draw(st.sampled_from([None, None, None, 500])),
        actions=actions,
    )


@st.composite
def flowspec_services(draw):
    service = FlowspecService(
        peer_acceptance=draw(compliance()),
        per_peer_rule_budget=draw(st.integers(1, 4)),
    )
    for rule in draw(st.lists(flowspec_rules(), max_size=5)):
        service.announce_rule(rule, sorted(draw(peer_sets)))
    return service


@st.composite
def scrubbing_setups(draw):
    """``(center_kwargs, active_since, seed)``; see :func:`scrubbing_center`."""
    center = {
        # Capacity as a share of the offered load; just under 1 makes the
        # admitted share of most flows round back to their full volume.
        "capacity_share": draw(st.sampled_from([1e-3, 0.3, 0.99999, 2.0, math.inf])),
        "true_positive_rate": draw(st.sampled_from([0.0, 0.5, 0.98, 1.0])),
        "false_positive_rate": draw(st.sampled_from([0.0, 0.02, 0.5])),
        "activation_delay_seconds": draw(st.sampled_from([0.0, 300.0])),
    }
    return center, draw(st.sampled_from([-1e9, 0.0, 1e9])), draw(seeds)


def scrubbing_center(kwargs, table, interval):
    kwargs = dict(kwargs)
    offered_bps = max(int(table.total_bits), 1) / interval
    kwargs["capacity_bps"] = kwargs.pop("capacity_share") * offered_bps
    return ScrubbingCenter(**kwargs)


@st.composite
def prefilter_rules(draw):
    action = draw(st.sampled_from([FilterAction.DROP, FilterAction.SHAPE]))
    shape_rate = draw(st.sampled_from([1e3, 5e4, 1e6]))
    match = FlowMatch(
        dst_prefix=draw(prefixes),
        protocol=draw(optional(l4_protocols)),
        src_port=draw(optional(pool_ports)),
        dst_port=draw(optional(pool_ports)),
        src_mac=draw(optional(ingress_asns.map(derived_mac))),
        src_prefix=draw(optional(prefixes)),
    )
    return BlackholingRule.create(
        VICTIM_ASN, match, action, shape_rate if action is FilterAction.SHAPE else 0.0
    )


@given(flow_tables(), rtbh_services(), intervals)
def test_rtbh_matches_reference(table, service, interval):
    outcome = RtbhMitigation(service).apply(table, interval)
    assert_matches_reference(outcome, reference.rtbh(service, to_records(table)))


@given(flow_tables(), access_lists(), intervals)
def test_acl_matches_reference(table, acl, interval):
    outcome = AclMitigation(acl).apply(table, interval)
    assert_matches_reference(outcome, reference.acl(acl, to_records(table)))


@given(flow_tables(), flowspec_services(), intervals)
def test_flowspec_matches_reference(table, service, interval):
    outcome = FlowspecMitigation(service).apply(table, interval)
    assert_matches_reference(outcome, reference.flowspec(service, to_records(table), interval))


@given(st.lists(flow_tables(), min_size=1, max_size=3), scrubbing_setups(), intervals)
def test_scrubbing_matches_reference(tables, setup, interval):
    # Several intervals through one instance: the RNG stream and the
    # scrubbed-bits total carry over between calls.
    center_kwargs, active_since, seed = setup
    center = scrubbing_center(center_kwargs, tables[0], interval)
    mitigation = ScrubbingMitigation(center, active_since=active_since, seed=seed)
    scrubber = reference.ReferenceScrubber(center, active_since, seed)
    for table in tables:
        outcome = mitigation.apply(table, interval)
        assert_matches_reference(outcome, scrubber.apply(to_records(table), interval))
        assert mitigation.scrubbed_bits_total == scrubber.scrubbed_bits_total


@given(
    flow_tables(),
    st.lists(prefilter_rules(), max_size=5),
    scrubbing_setups(),
    intervals,
)
def test_combined_matches_reference(table, rules, setup, interval):
    center_kwargs, active_since, seed = setup
    center = scrubbing_center(center_kwargs, table, interval)
    mitigation = CombinedMitigation(
        rules, ScrubbingMitigation(center, active_since=active_since, seed=seed)
    )
    scrubber = reference.ReferenceScrubber(center, active_since, seed)
    result = mitigation.apply_detailed(table, interval)
    expected = reference.combined(rules, scrubber, to_records(table), interval)
    assert_matches_reference(result.outcome, expected.outcome)
    assert result.prefiltered_bits == expected.prefiltered_bits
    assert result.scrubbed_bits == expected.scrubbed_bits
    assert result.scrubbing_cost == expected.scrubbing_cost
    assert mitigation.scrubbing.scrubbed_bits_total == scrubber.scrubbed_bits_total
