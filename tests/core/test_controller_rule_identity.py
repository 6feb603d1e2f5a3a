"""The controller's rule identity: which signals are one rule, which are two.

A rule is identified by its owner and its match; the action and the rate
are not part of it.  These tests drive the Stellar facade and read the
change requests the service applies, so they hold whatever record the
controller keys its rules by.
"""

from dataclasses import replace

from repro.bgp import Prefix
from repro.core import BlackholingRule, RuleTemplate, Stellar, StellarCommunityCodec
from repro.ixp import (
    EdgeRouter,
    FilterAction,
    IxpMember,
    SwitchingFabric,
    small_ixp_edge_router_profile,
)

IXP_ASN = 64700
VICTIM_ASN = 64500
HOST = "100.10.10.10/32"
OTHER_HOST = "100.10.10.11/32"
PEER_MAC = "02:00:00:00:fd:e8"

#: Community subtype the carrying codec uses for its registry index.
_CARRIER_SUBTYPE = 0x7F


def narrowed(rule, **criteria):
    """``rule`` with extra match criteria (a source MAC or source prefix).

    The result keeps ``rule``'s id, so each test narrows a rule of its own.
    """
    qos = getattr(rule, "qos", None)
    if qos is None:  # a rule that restates its match fields
        return replace(rule, **criteria)
    return replace(rule, qos=replace(qos, match=replace(qos.match, **criteria)))


class CarryingCodec(StellarCommunityCodec):
    """A codec that carries the whole rule, source MAC and prefix included.

    The Stellar communities have no field for a source MAC or prefix, so
    this codec registers each encoded rule and signals its index.
    """

    def __init__(self, ixp_asn):
        super().__init__(ixp_asn)
        self._carried = []

    def encode(self, rule):
        self._carried.append(rule)
        return {self._community(_CARRIER_SUBTYPE, len(self._carried) - 1)}

    def decode(self, communities):
        (carrier,) = communities
        qos = self._carried[carrier.local_admin].qos
        return RuleTemplate("carried", qos.match, qos.action, qos.shape_rate_bps)


def build_stellar(codec=None):
    fabric = SwitchingFabric()
    fabric.add_edge_router(EdgeRouter("er-1", profile=small_ixp_edge_router_profile()))
    stellar = Stellar(ixp_asn=IXP_ASN, fabric=fabric)
    if codec is not None:
        stellar.codec = stellar.controller.codec = stellar.signaling.codec = codec
    stellar.add_member(IxpMember(asn=VICTIM_ASN, prefixes=["100.10.10.0/24"]))
    stellar.add_member(IxpMember(asn=65000))
    return stellar


def applied(stellar, now):
    """The ``(op, rule id, QoS rule or None)`` of each change applied by ``now``."""
    changes = []
    for request, response in stellar.advance(now):
        assert response.status == "applied", response
        if request.op == "install":
            changes.extend(("install", rule.rule_id, rule) for rule in request.rules)
        else:
            changes.append((request.op, request.rule_id, None))
    return changes


def test_new_action_for_the_same_match_updates_the_rule_in_place():
    stellar = build_stellar()
    shape = BlackholingRule.shape_udp_source_port(VICTIM_ASN, HOST, 123, 2e8)
    stellar.request_mitigation(shape, via="bgp")
    ((_, first_id, first),) = applied(stellar, 1.0)
    assert first.action is FilterAction.SHAPE

    drop = BlackholingRule.drop_udp_source_port(VICTIM_ASN, HOST, 123)
    stellar.request_mitigation(drop, via="bgp")
    ((op, second_id, second),) = applied(stellar, 2.0)
    assert (op, second_id) == ("install", first_id)
    assert second.action is FilterAction.DROP and second.match == first.match
    assert len(stellar.active_rules()) == 1
    assert stellar.controller.stats.rules_updated == 1
    (router,) = stellar.fabric.edge_routers()
    assert router.installed_rules() == [second]


def test_api_signals_differing_only_in_source_mac_are_two_rules():
    stellar = build_stellar(CarryingCodec(IXP_ASN))
    base = BlackholingRule.drop_udp_source_port(VICTIM_ASN, HOST, 123)
    stellar.request_mitigation(base, via="api")
    other = BlackholingRule.drop_udp_source_port(VICTIM_ASN, HOST, 123)
    stellar.request_mitigation(narrowed(other, src_mac=PEER_MAC), via="api")
    changes = applied(stellar, 1.0)
    assert [op for op, _, _ in changes] == ["install", "install"]
    assert len({rule_id for _, rule_id, _ in changes}) == 2
    assert {rule.match.src_mac for _, _, rule in changes} == {None, PEER_MAC}
    assert len(stellar.active_rules()) == 2


def test_api_signals_differing_only_in_source_prefix_are_two_rules():
    stellar = build_stellar(CarryingCodec(IXP_ASN))
    base = BlackholingRule.drop_udp_source_port(VICTIM_ASN, HOST, 123)
    source = Prefix.parse("198.51.100.0/24")
    stellar.request_mitigation(base, via="api")
    other = BlackholingRule.drop_udp_source_port(VICTIM_ASN, HOST, 123)
    stellar.request_mitigation(narrowed(other, src_prefix=source), via="api")
    changes = applied(stellar, 1.0)
    assert [op for op, _, _ in changes] == ["install", "install"]
    assert len({rule_id for _, rule_id, _ in changes}) == 2
    assert {rule.match.src_prefix for _, _, rule in changes} == {None, source}
    assert len(stellar.active_rules()) == 2


def test_withdrawal_removes_exactly_the_rules_for_that_prefix():
    stellar = build_stellar(CarryingCodec(IXP_ASN))
    kept = BlackholingRule.drop_udp_source_port(VICTIM_ASN, OTHER_HOST, 123)
    stellar.request_mitigation(kept, via="api")
    for port in (53, 123):
        rule = BlackholingRule.drop_udp_source_port(VICTIM_ASN, HOST, port)
        stellar.request_mitigation(rule, via="api")
    ids_by_host = {}
    for _, rule_id, rule in applied(stellar, 1.0):
        ids_by_host.setdefault(str(rule.match.dst_prefix), set()).add(rule_id)
    assert {host: len(ids) for host, ids in ids_by_host.items()} == {HOST: 2, OTHER_HOST: 1}

    stellar.withdraw_mitigation(VICTIM_ASN, HOST, via="api")
    removed = applied(stellar, 2.0)
    assert {op for op, _, _ in removed} == {"remove"}
    assert {rule_id for _, rule_id, _ in removed} == ids_by_host[HOST]
    (router,) = stellar.fabric.edge_routers()
    assert {rule.rule_id for rule in router.installed_rules()} == ids_by_host[OTHER_HOST]
    assert len(stellar.active_rules()) == 1
