"""Property tests: fabric delivery against the naive reference, conservation.

The second parity contract — :meth:`SwitchingFabric.deliver` must be
indistinguishable from the naive reference in ``tests/oracle`` — checked
end-to-end on generated multi-PoP topologies via
:meth:`FabricIntervalReport.to_dict` and the port counters, plus the
platform-level conservation invariants (offered == carried traffic;
delivered + filtered + congestion-dropped == offered; IPFIX collector
totals == carried bytes), and the agreement of the report's per-member
columns with the per-port results it builds on lookup.  The port
counters are checked across intervals, also while members connect and
rules install mid-run.
"""

import numpy as np
import pytest
from hypothesis import event, given, strategies as st

from fuzz.strategies import (
    BROAD_PREFIXES,
    MEMBER_BASE_ASN,
    UNKNOWN_EGRESS_ASN,
    build_fabric,
    build_flow_table,
    fabric_specs,
    ingress_asns,
    member_asns_of,
    qos_rules,
    rule_sets,
)
from oracle.reference import (
    ReferenceFabric,
    column_rule_stats,
    utilisation as port_utilisation,
)
from repro.bgp import Prefix
from repro.ixp import FilterAction, FlowMatch, IxpMember, QosRule
from repro.ixp.fabric import MEMBER_REPORT_FIELDS
from repro.traffic.flowtable import derived_mac

INTERVAL = 10.0


@st.composite
def fabric_scenarios(draw):
    """A topology spec + rule assignment + a short run of interval tables.

    Rules are spread round-robin across the members so multi-router specs
    exercise ports on every edge router; tables mix traffic to every
    member with traffic to an unconnected egress ASN the platform must
    ignore.  Several intervals are drawn so stateful shapers drain across
    deliveries.
    """
    spec = draw(fabric_specs())
    members = member_asns_of(spec)
    rules = draw(rule_sets(max_size=12))
    assignments = [(members[i % len(members)], rule) for i, rule in enumerate(rules)]
    egress_pool = tuple(members) + (UNKNOWN_EGRESS_ASN,)
    tables = [
        build_flow_table(
            seed=draw(st.integers(0, 2**31 - 1)),
            n=draw(st.integers(0, 60)),
            egress_pool=egress_pool,
        )
        for _ in range(draw(st.integers(1, 3)))
    ]
    return spec, assignments, tables


@st.composite
def column_scenarios(draw):
    """:func:`fabric_scenarios` at either the default or a tiny interval.

    A 10 µs interval leaves every port a capacity budget of a few
    hundred kilobits at most, below what a generated table offers it, so
    the congestion cap runs and utilisation exceeds 1.
    """
    spec, assignments, tables = draw(fabric_scenarios())
    return spec, assignments, tables, draw(st.sampled_from((INTERVAL, 1e-5)))


@st.composite
def growing_scenarios(draw):
    """:func:`fabric_scenarios` with one member connecting and one rule
    installing mid-run, each before a drawn interval.

    Every table also sends traffic to the late member, which the platform
    ignores until it connects.
    """
    spec, assignments, _ = draw(fabric_scenarios())
    members = member_asns_of(spec)
    late_asn = MEMBER_BASE_ASN + len(members)
    tables = [
        build_flow_table(
            seed=draw(st.integers(0, 2**31 - 1)),
            n=draw(st.integers(0, 60)),
            egress_pool=(*members, late_asn, UNKNOWN_EGRESS_ASN),
        )
        for _ in range(draw(st.integers(2, 4)))
    ]
    connect_at = draw(st.integers(0, len(tables) - 1))
    install_at = draw(st.integers(0, len(tables) - 1))
    late_rule = (draw(st.sampled_from(members)), draw(qos_rules()))
    return spec, assignments, tables, late_asn, connect_at, install_at, late_rule


@st.composite
def shared_rule_scenarios(draw):
    """Several members holding one rule list, one member holding none.

    Every exact key of the list then collides across the members holding
    it, so one classification pass must still resolve each row to its own
    member's copy of the rule.  A MAC rule and a broad-prefix rule ride
    along on the fallback path, and the tables also send traffic to an
    unconnected egress ASN.
    """
    spec = {**draw(fabric_specs()), "member_count": draw(st.integers(3, 5))}
    members = member_asns_of(spec)
    bare = draw(st.sampled_from(members))
    fallbacks = [
        QosRule(FlowMatch(src_mac=derived_mac(draw(ingress_asns))), FilterAction.DROP),
        QosRule(
            FlowMatch(dst_prefix=Prefix.parse(draw(st.sampled_from(BROAD_PREFIXES)))),
            draw(st.sampled_from([FilterAction.DROP, FilterAction.FORWARD])),
            rule_id="broad",
        ),
    ]
    rules = draw(st.permutations(draw(rule_sets(min_size=1, max_size=10)) + fallbacks))
    assignments = [(asn, rule) for asn in members if asn != bare for rule in rules]
    tables = [
        build_flow_table(
            seed=draw(st.integers(0, 2**31 - 1)),
            n=draw(st.integers(1, 80)),
            egress_pool=(*members, UNKNOWN_EGRESS_ASN),
        )
        for _ in range(draw(st.integers(1, 3)))
    ]
    return spec, assignments, tables


def install_all(fabric, assignments):
    for member_asn, rule in assignments:
        fabric.router_for_member(member_asn).install_rule(member_asn, rule)


def known_rows(fabric, table):
    """``(rows, bytes)`` of the rows whose egress member is connected."""
    member_asns = fabric.member_asns
    mask = [int(asn) in member_asns for asn in table.egress_asn.tolist()]
    return sum(mask), int(sum(b for b, keep in zip(table.bytes.tolist(), mask) if keep))


class TestDeliveryEngineParity:
    @given(scenario=fabric_scenarios())
    def test_to_dict_parity_across_intervals(self, scenario):
        """Every interval's report equals the reference's, shapers included."""
        spec, assignments, tables = scenario
        fabric = build_fabric(spec)
        install_all(fabric, assignments)
        oracle = ReferenceFabric(fabric)
        for step, table in enumerate(tables):
            report = fabric.deliver(table, INTERVAL, step * INTERVAL)
            expected = oracle.deliver(table, INTERVAL, step * INTERVAL)
            assert report.to_dict() == expected, f"interval {step}"

    @given(scenario=fabric_scenarios())
    def test_port_counters_parity(self, scenario):
        spec, assignments, tables = scenario
        fabric = build_fabric(spec)
        install_all(fabric, assignments)
        oracle = ReferenceFabric(fabric)
        for step, table in enumerate(tables):
            fabric.deliver(table, INTERVAL, step * INTERVAL)
            oracle.deliver(table, INTERVAL, step * INTERVAL)
        for member_asn in member_asns_of(spec):
            counters = vars(fabric.port_for_member(member_asn).counters)
            expected = oracle.counters.get(member_asn, dict.fromkeys(counters, 0.0))
            assert counters == expected, member_asn


    @given(scenario=growing_scenarios())
    def test_port_counters_parity_with_mid_run_changes(self, scenario):
        """Counters stay exact while the counter store grows and rules change."""
        spec, assignments, tables, late_asn, connect_at, install_at, late_rule = scenario
        fabric = build_fabric(spec)
        install_all(fabric, assignments)
        oracle = ReferenceFabric(fabric)
        members = member_asns_of(spec)
        for step, table in enumerate(tables):
            if step == connect_at:
                fabric.connect_member(IxpMember(asn=late_asn, pop="pop-1"))
                members.append(late_asn)
            if step == install_at:
                asn, rule = late_rule
                fabric.router_for_member(asn).install_rule(asn, rule)
                oracle.forget(asn, {rule.rule_id})
            report = fabric.deliver(table, INTERVAL, step * INTERVAL)
            assert report.to_dict() == oracle.deliver(table, INTERVAL, step * INTERVAL)
            for member_asn in members:
                counters = vars(fabric.port_for_member(member_asn).counters)
                expected = oracle.counters.get(member_asn, dict.fromkeys(counters, 0.0))
                assert counters == expected, (step, member_asn)


class TestSharedRuleLists:
    @given(scenario=shared_rule_scenarios())
    def test_members_sharing_rules_match_reference(self, scenario):
        """Each member's report entry and rule rows equal the reference's."""
        spec, assignments, tables = scenario
        fabric = build_fabric(spec)
        install_all(fabric, assignments)
        oracle = ReferenceFabric(fabric)
        for step, table in enumerate(tables):
            report = fabric.deliver(table, INTERVAL, step * INTERVAL).to_dict()
            expected = oracle.deliver(table, INTERVAL, step * INTERVAL)
            assert list(report["members"]) == list(expected["members"]), step
            for asn, entry in expected["members"].items():
                assert report["members"][asn] == entry, (step, asn)
            assert report == expected, step
            if any(entry["rule_stats"] for entry in expected["members"].values()):
                event("a shared rule claimed bits")


class TestReportColumns:
    @given(scenario=column_scenarios())
    def test_columns_and_utilisation_match_per_member_results(self, scenario):
        """The report's arrays carry exactly the numbers of its results.

        ``to_columns()`` lists ``results_by_member`` in ascending-ASN
        order, and ``port_utilisation()`` equals each port's scalar
        utilisation in ``tests/oracle``, element by element.
        """
        spec, assignments, tables, interval = scenario
        fabric = build_fabric(spec)
        install_all(fabric, assignments)
        for step, table in enumerate(tables):
            report = fabric.deliver(table, interval, step * interval)
            ordered = sorted(report.results_by_member.items())
            columns = report.to_columns()
            assert columns["member_asns"].dtype == np.int64
            assert columns["member_asns"].tolist() == [asn for asn, _ in ordered]
            assert list(columns["member_fields"]) == list(MEMBER_REPORT_FIELDS)
            for name, values in columns["member_fields"].items():
                assert values.dtype == np.float64, name
                assert values.tolist() == [
                    getattr(result, name) for _, result in ordered
                ], name
            utilisation = report.port_utilisation()
            assert utilisation.dtype == np.float64
            assert utilisation.tolist() == [
                port_utilisation(fabric.port_for_member(asn), result, interval)
                for asn, result in ordered
            ]
            if not ordered:
                event("no member offered traffic")
            elif (utilisation > 1.0).any():
                event("oversubscribed port")


class TestPortResults:
    @given(scenario=column_scenarios())
    def test_results_built_on_lookup_match_columns(self, scenario):
        """``results_by_member`` is a read-only view of the report's columns.

        A lookup builds the port's result from its column entries and
        caches it; each port's ``rule_stats`` in ``to_dict()`` are its
        rows of the rule columns (``{}`` when it has none), and only ports
        that carried traffic have rows; an ASN that carried no traffic is
        not a key.
        """
        spec, assignments, tables, interval = scenario
        fabric = build_fabric(spec)
        install_all(fabric, assignments)
        for step, table in enumerate(tables):
            report = fabric.deliver(table, interval, step * interval)
            results = report.results_by_member
            asns = report.member_asns.tolist()
            assert list(results) == asns
            assert len(results) == len(asns)
            for index, asn in enumerate(asns):
                assert asn in results
                result = results[asn]
                for name in MEMBER_REPORT_FIELDS:
                    value = getattr(result, name)
                    assert type(value) is float, (asn, name)
                    assert value == report.member_fields[name][index], (asn, name)
                assert results[asn] is result
                assert results[np.int64(asn)] is result
                assert results.get(asn) is result
            stats_by_member = column_rule_stats(report.rule_columns)
            assert set(stats_by_member) <= set(asns)
            members = report.to_dict()["members"]
            for asn in asns:
                assert members[str(asn)]["rule_stats"] == stats_by_member.get(asn, {})
            # A float twin of an ASN looked up above hashes like it, but is
            # no key either: the answer must not depend on earlier lookups.
            absent = [UNKNOWN_EGRESS_ASN, "64500", None]
            absent += [float(asn) for asn in asns[:1]]
            absent += [asn for asn in member_asns_of(spec) if asn not in asns]
            for key in absent:
                assert key not in results
                assert results.get(key) is None
                with pytest.raises(KeyError):
                    results[key]
            if len(report.rule_columns.member_asns):
                event("a rule claimed bits")


class TestFabricConservation:
    @given(scenario=fabric_scenarios())
    def test_bits_conserved_and_ipfix_matches(self, scenario):
        spec, assignments, tables = scenario
        fabric = build_fabric(spec)
        install_all(fabric, assignments)
        carried_rows = carried_bytes = 0
        for step, table in enumerate(tables):
            report = fabric.deliver(table, INTERVAL, step * INTERVAL)
            interval_rows, interval_bytes = known_rows(fabric, table)
            carried_rows += interval_rows
            carried_bytes += interval_bytes
            # Offered == the traffic whose egress member is connected;
            # rows to unknown ASNs never entered the IXP.
            assert report.offered_bits == pytest.approx(
                interval_bytes * 8, rel=1e-9, abs=1e-6
            )
            assert (
                report.delivered_bits
                + report.filtered_bits
                + report.congestion_dropped_bits
            ) == pytest.approx(report.offered_bits, rel=1e-9, abs=1e-6)
            # The report's member breakdown covers all offered bits too.
            member_total = sum(
                result.forwarded_bits
                + result.dropped_bits
                + result.shaped_passed_bits
                + result.shaped_dropped_bits
                + result.congestion_dropped_bits
                for result in report.results_by_member.values()
            )
            assert member_total == pytest.approx(
                report.offered_bits, rel=1e-9, abs=1e-6
            )
        # IPFIX export only sees carried traffic, and sees all of it.
        totals = fabric.collector.bytes_by_exporter()
        assert sum(totals.values()) == carried_bytes
        assert len(fabric.collector) == carried_rows

    @given(spec=fabric_specs(), seed=st.integers(0, 2**31 - 1), n=st.integers(0, 40))
    def test_unknown_egress_traffic_is_ignored(self, spec, seed, n):
        """An interval addressed only to unconnected ASNs is a no-op."""
        fabric = build_fabric(spec)
        table = build_flow_table(seed=seed, n=n, egress_pool=(UNKNOWN_EGRESS_ASN,))
        report = fabric.deliver(table, INTERVAL)
        assert report.offered_bits == 0.0
        assert report.results_by_member == {}
        assert sum(fabric.collector.bytes_by_exporter().values()) == 0
