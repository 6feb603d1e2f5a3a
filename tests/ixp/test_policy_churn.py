"""Rule-churn edge cases: remove()/clear() semantics and cache exactness.

Deterministic companions to the ``tests/fuzz`` suite — every scenario
here is either an edge case the state machine exercises randomly
(removing a shaped rule mid-interval, removing a synthetic ``anon-<n>``
id, remove-then-reinstall, clearing an empty policy) or a minimal
regression test for a bug the fuzzing work fixed:

* ``remove()`` of an unknown id / ``clear()`` of an empty policy used to
  bump ``rules_version``, spuriously invalidating the compiled rule
  index and the fabric's cached delivery plan;
* an anonymous SHAPE rule could be assigned a synthetic id colliding
  with a user-supplied rule literally named ``anon-<n>``, silently
  replacing it (and merging two shapers into one);
* an :class:`EdgeRouter` keyed installation records by rule id alone, so
  the same id on two different member ports of one router released the
  other port's TCAM footprint;
* removing an anonymous SHAPE rule by its ``anon-<n>`` id left its TCAM
  footprint charged until the whole port was cleared.
"""

import pytest

from fuzz.strategies import router_fabric, single_port_fabric
from oracle.records import FiveTuple, FlowRecord, from_records
from oracle.reference import ReferenceFabric
from repro.bgp import Prefix
from repro.ixp import (
    EdgeRouter,
    FilterAction,
    FlowMatch,
    IxpMember,
    PortQosPolicy,
    QosRule,
)
from repro.traffic import IpProtocol

#: How each interval is classified: by the production rule index, or by
#: the naive per-rule first match of the reference in ``tests/oracle``.
PATHS = ("indexed", "per-rule")

INTERVAL = 10.0
ASN = 64500


def shape_rule(rule_id="", rate=1e6, dst="10.1.0.1/32"):
    return QosRule(
        match=FlowMatch(dst_prefix=Prefix.parse(dst)),
        action=FilterAction.SHAPE,
        shape_rate_bps=rate,
        rule_id=rule_id,
    )


def flow(bytes=1250, dst_ip="10.1.0.1"):
    return FlowRecord(
        key=FiveTuple(
            src_ip="198.51.100.7",
            dst_ip=dst_ip,
            protocol=IpProtocol.UDP,
            src_port=123,
            dst_port=50000,
        ),
        start=0.0,
        duration=INTERVAL,
        bytes=bytes,
        packets=1,
        ingress_member_asn=65001,
        egress_member_asn=ASN,
    )


class Port:
    """One member port plus the reference reading its rules."""

    def __init__(self, path):
        self.path = path
        self.fabric, port = single_port_fabric(port_capacity_bps=10e9, asn=ASN)
        self.policy = port.qos
        self.oracle = ReferenceFabric(self.fabric)

    def deliver(self, bytes=10_000_000):
        """One interval's member accounting, on this port's path."""
        table = from_records([flow(bytes=bytes)])
        if self.path == "indexed":
            report = self.fabric.deliver(table, INTERVAL).to_dict()
        else:
            report = self.oracle.deliver(table, INTERVAL)
        return report["members"][str(ASN)]


def assert_all_forwarded(result, bits=10_000_000 * 8):
    assert result["forwarded_bits"] == bits
    assert result["rule_stats"] == {}


@pytest.mark.parametrize("path", PATHS)
class TestRemoveAndClear:
    def test_remove_shaped_rule_mid_interval(self, path):
        """Traffic shaped in interval 1 forwards after the rule's removal."""
        port = Port(path)
        policy = port.policy
        policy.install(shape_rule(rule_id="shape-1", rate=1e5))
        first = port.deliver()
        assert first["shaped_dropped_bits"] > 0
        version = policy.rules_version
        index = policy.compiled_index()
        assert policy.remove("shape-1") is True
        port.oracle.forget(ASN, {"shape-1"})
        assert policy.rules_version > version
        assert policy.compiled_index() is not index
        assert policy.shaper_for("shape-1") is None
        second = port.deliver()
        assert second["shaped_passed_bits"] == 0.0
        assert_all_forwarded(second)

    def test_remove_synthetic_anon_id(self, path):
        port = Port(path)
        policy = port.policy
        policy.install(shape_rule())  # anonymous -> synthetic id
        anon_id = policy.rules()[0].rule_id
        assert anon_id.startswith("anon-")
        version = policy.rules_version
        assert policy.remove(anon_id) is True
        assert policy.rules_version > version
        assert len(policy) == 0
        assert policy.shaper_for(anon_id) is None
        assert_all_forwarded(port.deliver())

    def test_remove_then_reinstall_same_id_resets_shaper(self, path):
        port = Port(path)
        policy = port.policy
        policy.install(shape_rule(rule_id="shape-1"))
        first_shaper = policy.shaper_for("shape-1")
        assert policy.remove("shape-1") is True
        policy.install(shape_rule(rule_id="shape-1", rate=2e6))
        port.oracle.forget(ASN, {"shape-1"})
        second_shaper = policy.shaper_for("shape-1")
        assert second_shaper is not None
        assert second_shaper is not first_shaper
        # The reinstalled rule shapes at its own (new) rate.
        assert port.deliver()["shaped_passed_bits"] == 2e6 * INTERVAL

    def test_remove_missing_id_is_silent_no_op(self, path):
        """Regression: no version bump, caches stay warm."""
        port = Port(path)
        policy = port.policy
        policy.install(shape_rule(rule_id="shape-1"))
        version = policy.rules_version
        index = policy.compiled_index()
        assert policy.remove("no-such-rule") is False
        assert policy.rules_version == version
        assert policy.compiled_index() is index
        assert port.deliver()["shaped_passed_bits"] == 1e6 * INTERVAL

    def test_clear_on_empty_policy_is_no_op(self, path):
        """Regression: clearing nothing must not invalidate anything."""
        port = Port(path)
        policy = port.policy
        version = policy.rules_version
        index = policy.compiled_index()
        policy.clear()
        assert policy.rules_version == version
        assert policy.compiled_index() is index
        assert_all_forwarded(port.deliver())

    def test_clear_on_populated_policy_bumps_once(self, path):
        port = Port(path)
        policy = port.policy
        policy.install(shape_rule(rule_id="shape-1"))
        policy.install(shape_rule())
        version = policy.rules_version
        policy.clear()
        port.oracle.forget(ASN)
        assert policy.rules_version == version + 1
        assert len(policy) == 0
        assert policy.shaper_for("shape-1") is None
        assert_all_forwarded(port.deliver())


class TestAnonIdCollision:
    """Regression: synthetic anon ids must skip user-supplied ones."""

    def test_install_after_user_anon_id(self):
        policy = PortQosPolicy(port_capacity_bps=10e9)
        policy.install(shape_rule(rule_id="anon-1", rate=1e6))
        policy.install(shape_rule(rate=2e6))  # anonymous
        ids = sorted(rule.rule_id for rule in policy.rules())
        assert len(ids) == 2 and len(set(ids)) == 2
        shapers = {rule_id: policy.shaper_for(rule_id) for rule_id in ids}
        assert all(shaper is not None for shaper in shapers.values())
        assert shapers["anon-1"].rate_bps == 1e6
        (other_id,) = [rule_id for rule_id in ids if rule_id != "anon-1"]
        assert shapers[other_id].rate_bps == 2e6

    def test_install_many_batch_collision(self):
        policy = PortQosPolicy(port_capacity_bps=10e9)
        policy.install_many([shape_rule(rule_id="anon-1", rate=1e6), shape_rule(rate=2e6)])
        assert len(policy) == 2
        assert len({rule.rule_id for rule in policy.rules()}) == 2


class TestRouterInstallationScoping:
    """Regression: a rule id is scoped to one port's policy."""

    def _router_with_two_members(self):
        router = EdgeRouter("edge-1")
        a = IxpMember(asn=64500, name="member-a", port_capacity_bps=10e9)
        b = IxpMember(asn=64501, name="member-b", port_capacity_bps=10e9)
        router_fabric(router, a, b)
        return router

    def test_same_rule_id_on_two_ports_keeps_both_footprints(self):
        router = self._router_with_two_members()
        rule = QosRule(match=FlowMatch(dst_port=53), action=FilterAction.DROP, rule_id="rule-1")
        router.install_rule(64500, rule)
        router.install_rule(64501, rule)
        port_a = router.port_for(64500)
        port_b = router.port_for(64501)
        assert len(port_a.qos) == 1 and len(port_b.qos) == 1
        # One L3-L4 criterion each; neither install may release the other's.
        assert router.tcam.usage_for_port(port_a.port_id) == (0, 1)
        assert router.tcam.usage_for_port(port_b.port_id) == (0, 1)
        assert len(router.installed_rules()) == 2

    def test_remove_releases_only_this_ports_footprint(self):
        router = self._router_with_two_members()
        rule = QosRule(match=FlowMatch(dst_port=53), action=FilterAction.DROP, rule_id="rule-1")
        router.install_rule(64500, rule)
        router.install_rule(64501, rule)
        assert router.remove_rule(64500, "rule-1") is True
        port_a = router.port_for(64500)
        port_b = router.port_for(64501)
        assert router.tcam.usage_for_port(port_a.port_id) == (0, 0)
        assert router.tcam.usage_for_port(port_b.port_id) == (0, 1)
        assert len(port_b.qos) == 1

    def test_clear_rules_releases_anonymous_footprint(self):
        router = self._router_with_two_members()
        router.install_rule(64500, shape_rule())  # anonymous
        port_a = router.port_for(64500)
        assert router.tcam.usage_for_port(port_a.port_id) == (0, 1)
        assert router.clear_rules(64500) == 1
        assert router.tcam.usage_for_port(port_a.port_id) == (0, 0)
        assert len(port_a.qos) == 0

    def test_removing_an_anonymous_shape_rule_by_its_id_releases_its_footprint(self):
        router = self._router_with_two_members()
        router.install_rule(64500, shape_rule())
        port_a = router.port_for(64500)
        (anon_id,) = port_a.qos.rule_ids()
        assert [rule.rule_id for rule in router.installed_rules()] == [anon_id]
        assert router.remove_rule(64500, anon_id) is True
        assert router.tcam.usage_for_port(port_a.port_id) == (0, 0)
        assert router.installed_rules() == []

    def test_clear_rules_on_empty_port_is_no_op(self):
        router = self._router_with_two_members()
        operations = router.config_operations
        assert router.clear_rules(64500) == 0
        assert router.config_operations == operations
        assert router.port_for(64500).qos.rules_version == 0
