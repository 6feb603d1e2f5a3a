"""Property tests: rule-index classification against the naive reference.

The first parity contract — :meth:`PortQosPolicy.assign_table` (the
compiled rule-match index) must be *verdict-for-verdict* equal to the
naive per-rule first match in ``tests/oracle`` — plus the conservation
and accounting invariants of a full delivery, for arbitrary generated
rule sets and intervals (not just the scripted scenarios).
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fuzz.strategies import build_flow_table, flow_tables, rule_sets, single_port_fabric
from oracle.reference import ReferenceFabric, assign, first_match, precedence
from repro.traffic import FlowTable

PORT_CAPACITY = 10e9
INTERVAL = 10.0


def make_fabric(rules, port_capacity_bps=PORT_CAPACITY):
    fabric, port = single_port_fabric(port_capacity_bps)
    for rule in rules:
        port.qos.install(rule)
    return fabric, port


def deliver(rules, table, port_capacity_bps=PORT_CAPACITY):
    """One interval through a fresh port holding ``rules``."""
    fabric, port = make_fabric(rules, port_capacity_bps)
    report = fabric.deliver(table, INTERVAL)
    return fabric, port, report, report.results_by_member.get(port.asn)


class TestAssignParity:
    @given(rules=rule_sets(), table=flow_tables())
    def test_indexed_equals_per_rule(self, rules, table):
        _, port = make_fabric(rules)
        assert np.array_equal(port.qos.assign_table(table), assign(port.qos, table))

    @given(rules=rule_sets(min_size=1), table=flow_tables(min_rows=1))
    def test_assigned_rank_really_is_first_match(self, rules, table):
        """The claiming rule is the reference's first match, object for object."""
        _, port = make_fabric(rules)
        ranks = port.qos.assign_table(table)
        sorted_rules = port.qos.sorted_rules()
        reference_rules = precedence(port.qos)
        for row, record in enumerate(table.to_records()[:10]):
            expected = first_match(reference_rules, record)
            if ranks[row] < 0:
                assert expected == -1, f"row {row}: index says no match"
            else:
                assert sorted_rules[ranks[row]] is reference_rules[expected]


class TestApplyInvariants:
    @given(rules=rule_sets(), table=flow_tables(min_rows=1))
    def test_bit_conservation(self, rules, table):
        """forwarded + dropped + shaped + congestion-dropped == input bits."""
        result = deliver(rules, table)[3]
        total = (
            result.forwarded_bits
            + result.dropped_bits
            + result.shaped_passed_bits
            + result.shaped_dropped_bits
            + result.congestion_dropped_bits
        )
        assert total == pytest.approx(float(table.total_bits), rel=1e-9, abs=1e-6)

    @given(rules=rule_sets(min_size=1), table=flow_tables(min_rows=1))
    def test_rule_stats_match_claimed_flows(self, rules, table):
        """rule_stats sums reconcile with the aggregate verdict buckets."""
        _, port, _, result = deliver(rules, table)
        dropped = sum(stats["dropped"] for stats in result.rule_stats.values())
        assert dropped == pytest.approx(result.dropped_bits, rel=1e-9, abs=1e-6)
        shaped = sum(stats["shaped"] for stats in result.rule_stats.values())
        # Shaped stats are computed from the rounded (scaled) byte column,
        # so the reconciliation target is the shaped table itself.
        assert shaped == pytest.approx(
            float(result.shaped_table.total_bits), rel=1e-9, abs=1e-6
        )
        for stats in result.rule_stats.values():
            assert stats["matched"] == pytest.approx(
                stats["dropped"] + stats["shaped"], rel=1e-9, abs=1e-6
            )
        assert set(result.rule_stats) <= set(port.qos.rule_ids())

    @given(
        rules=rule_sets(),
        table=flow_tables(),
        capacity=st.sampled_from([1e4, 1e6, PORT_CAPACITY]),
    )
    def test_full_apply_parity_bit_for_bit(self, rules, table, capacity):
        """Same report and verdict flows as the reference, congested or not."""
        fabric, port, report, result = deliver(rules, table, capacity)
        # The reference reads the policy's rules but drains its own shapers.
        oracle = ReferenceFabric(fabric)
        assert report.to_dict() == oracle.deliver(table, INTERVAL)
        if result is not None:
            forwarded, dropped, shaped = oracle.verdicts[port.asn]
            assert result.forwarded == forwarded
            assert result.dropped == dropped
            assert result.shaped == shaped


class TestTableRecordParity:
    """The third contract: columnar and record input agree exactly."""

    @given(rules=rule_sets(max_size=8), n=st.integers(0, 25), seed=st.integers(0, 2**31 - 1))
    def test_table_equals_records(self, rules, n, seed):
        table = build_flow_table(seed=seed, n=n)
        from_records = FlowTable.from_records(table.to_records())
        expected = ReferenceFabric(make_fabric(rules)[0]).deliver(table, INTERVAL)
        assert deliver(rules, table)[2].to_dict() == expected
        assert deliver(rules, from_records)[2].to_dict() == expected
