"""Property tests: a report's rule columns against the naive reference.

Part of the second parity contract.  The delivery pass computes every
interval's per-rule statistics as one set of columns
(:class:`~repro.ixp.delivery.RuleColumns`, one row per member and rule id
that claimed bits) in platform-wide array passes.  The reference in
``tests/oracle/reference.py`` builds the same statistics as one dict per
port, rule by rule.  On generated multi-port fabrics — anonymous ``""``
DROP rules whose bits sum under one id, SHAPE rules draining their
shapers across consecutive intervals, ports no rule matched — four
things must be equal, with ``==`` and no tolerance:

* each member's rule rows, in order: DROP ids by first claimed rank,
  then SHAPE ids by rank;
* every row's ``matched``/``dropped``/``shaped`` bits;
* every member's ``rule_stats`` in ``to_dict()`` (``{}`` for a port no
  rule claimed);
* the ``discarded`` column against each reference shaper's discarded
  bits (``0.0`` on DROP rows).

One fixed example pins the case generated rule sets rarely reach: a
``""`` row placed by its first *claimed* rank, not by the first rank the
id names.
"""

from hypothesis import event, given, strategies as st

from fuzz.strategies import (
    UNKNOWN_EGRESS_ASN,
    build_fabric,
    build_flow_table,
    fabric_specs,
    flow_matches,
    member_asns_of,
    rule_sets,
    single_port_fabric,
)
from oracle.reference import ReferenceFabric, column_rule_stats
from repro.bgp import Prefix
from repro.ixp import FilterAction, FlowMatch, QosRule
from repro.traffic import IpProtocol

INTERVAL = 10.0


@st.composite
def rule_column_scenarios(draw):
    """A topology, rules on all members but the last, and 2-4 intervals.

    Besides the generated rule set, up to four anonymous DROP rules join
    the pool, so a port often holds several rules named ``""``.  The last
    member holds no rule: its traffic, and that of ports whose rules
    match nothing, must leave no row.
    """
    spec = draw(fabric_specs())
    members = member_asns_of(spec)
    anonymous = [
        QosRule(draw(flow_matches()), FilterAction.DROP)
        for _ in range(draw(st.integers(0, 4)))
    ]
    rules = draw(st.permutations(draw(rule_sets(max_size=12)) + anonymous))
    holders = members[:-1]
    assignments = [(holders[i % len(holders)], rule) for i, rule in enumerate(rules)]
    tables = [
        build_flow_table(
            seed=draw(st.integers(0, 2**31 - 1)),
            n=draw(st.integers(0, 80)),
            egress_pool=(*members, UNKNOWN_EGRESS_ASN),
        )
        for _ in range(draw(st.integers(2, 4)))
    ]
    return spec, assignments, tables


def expected_rows(oracle):
    """The reference's ``(member, rule id)`` rows, in column order."""
    return [
        (asn, rule_id)
        for asn in sorted(oracle.rule_stats)
        for rule_id in oracle.rule_stats[asn]
    ]


class TestRuleColumns:
    @given(scenario=rule_column_scenarios())
    def test_columns_equal_the_reference_scatter(self, scenario):
        spec, assignments, tables = scenario
        fabric = build_fabric(spec)
        for member_asn, rule in assignments:
            fabric.router_for_member(member_asn).install_rule(member_asn, rule)
        oracle = ReferenceFabric(fabric)
        for step, table in enumerate(tables):
            report = fabric.deliver(table, INTERVAL, step * INTERVAL)
            oracle.deliver(table, INTERVAL, step * INTERVAL)
            columns = report.rule_columns
            rows = list(zip(columns.member_asns.tolist(), columns.rule_ids.tolist()))
            assert rows == expected_rows(oracle), step
            # The rows' bits, member by member and as a whole.
            stats_by_member = column_rule_stats(columns)
            for asn, stats in oracle.rule_stats.items():
                assert stats_by_member[asn] == stats, (step, asn)
            assert stats_by_member == oracle.rule_stats
            # Each port's entry in the canonical report carries its
            # member's stats (or none).
            members = report.to_dict()["members"]
            assert sorted(int(asn) for asn in members) == list(report.results_by_member)
            for asn in report.results_by_member:
                assert members[str(asn)]["rule_stats"] == oracle.rule_stats.get(asn, {}), (
                    step, asn,
                )
            # What each shaper discarded; DROP rows discard nothing.
            assert columns.discarded.tolist() == [
                oracle.discarded.get(asn, {}).get(rule_id, 0.0) for asn, rule_id in rows
            ], step
            if "" in columns.rule_ids.tolist():
                event("anonymous DROP rules share a row")
            if oracle.discarded:
                event("a shaper discarded bits")
            if len(report.results_by_member) > len(oracle.rule_stats):
                event("a port carried traffic no DROP/SHAPE rule claimed")


def test_the_anonymous_row_sits_at_its_first_claimed_rank():
    """``""`` first names an unclaimed FORWARD rule, ranked above a
    claimed named DROP rule; the claimed ``""`` DROP rule ranks below it.
    The ``""`` row follows the named one, as in the reference."""
    fabric, port = single_port_fabric()
    never = FlowMatch(
        dst_prefix=Prefix.parse("10.9.9.9/32"),
        src_prefix=Prefix.parse("10.9.9.8/32"),
        protocol=IpProtocol.UDP,
        src_port=1,
        dst_port=2,
    )
    port.qos.install_many([
        QosRule(never, FilterAction.FORWARD),
        QosRule(
            FlowMatch(dst_prefix=Prefix.parse("10.1.0.0/24")),
            FilterAction.DROP,
            rule_id="named",
        ),
        QosRule(FlowMatch(), FilterAction.DROP),
    ])
    oracle = ReferenceFabric(fabric)
    table = build_flow_table(seed=3, n=40, egress_pool=(port.asn,))
    report = fabric.deliver(table, INTERVAL)
    oracle.deliver(table, INTERVAL)
    assert report.rule_columns.rule_ids.tolist() == ["named", ""]
    stats_by_member = column_rule_stats(report.rule_columns)
    assert list(stats_by_member[port.asn]) == list(oracle.rule_stats[port.asn])
    assert stats_by_member == oracle.rule_stats
