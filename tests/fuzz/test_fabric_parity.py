"""Property tests: fabric delivery against the naive reference, conservation.

The second parity contract — :meth:`SwitchingFabric.deliver` must be
indistinguishable from the naive reference in ``tests/oracle`` — checked
end-to-end on generated multi-PoP topologies via
:meth:`FabricIntervalReport.to_dict` and the port counters, plus the
platform-level conservation invariants (offered == carried traffic;
delivered + filtered + congestion-dropped == offered; IPFIX collector
totals == carried bytes).
"""

import pytest
from hypothesis import given, strategies as st

from fuzz.strategies import (
    UNKNOWN_EGRESS_ASN,
    build_fabric,
    build_flow_table,
    fabric_specs,
    member_asns_of,
    rule_sets,
)
from oracle.reference import ReferenceFabric

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


def install_all(fabric, assignments):
    for member_asn, rule in assignments:
        fabric.router_for_member(member_asn).install_rule(member_asn, rule)


def known_bytes(fabric, table):
    """Bytes of the rows whose egress member is connected to the fabric."""
    member_asns = fabric.member_asns
    mask = [int(asn) in member_asns for asn in table.egress_asn.tolist()]
    return int(sum(b for b, keep in zip(table.bytes.tolist(), mask) if keep))


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


class TestFabricConservation:
    @given(scenario=fabric_scenarios())
    def test_bits_conserved_and_ipfix_matches(self, scenario):
        spec, assignments, tables = scenario
        fabric = build_fabric(spec)
        install_all(fabric, assignments)
        carried_bytes = 0
        for step, table in enumerate(tables):
            report = fabric.deliver(table, INTERVAL, step * INTERVAL)
            interval_bytes = known_bytes(fabric, table)
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

    @given(spec=fabric_specs(), seed=st.integers(0, 2**31 - 1), n=st.integers(0, 40))
    def test_unknown_egress_traffic_is_ignored(self, spec, seed, n):
        """An interval addressed only to unconnected ASNs is a no-op."""
        fabric = build_fabric(spec)
        table = build_flow_table(seed=seed, n=n, egress_pool=(UNKNOWN_EGRESS_ASN,))
        report = fabric.deliver(table, INTERVAL)
        assert report.offered_bits == 0.0
        assert report.results_by_member == {}
        assert sum(fabric.collector.bytes_by_exporter().values()) == 0
