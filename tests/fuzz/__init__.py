"""Property-based stateful fuzzing of the data plane.

The package hardens the repo's three parity contracts — rule-index
classification == the naive first match, fabric delivery == the naive
reference in ``tests/oracle``, table == record flow input — with
Hypothesis.  ``strategies`` is the shared source of truth
for generated rules, flow tables and topologies; the test modules assert
verdict parity, conservation invariants and (via ``RuleStateMachine``)
cache/version/TCAM consistency under arbitrary interleavings of rule churn
and delivery.  See docs/TESTING.md.
"""
