"""Tests for blackholing rules, the extended-community codec and the portal."""

import pytest
from hypothesis import given, strategies as st

from fuzz.strategies import l4_ports, l4_protocols

from repro.bgp import ExtendedCommunity, Prefix
from repro.core import (
    BlackholingRule,
    CommunityDecodeError,
    CustomerPortal,
    RuleAction,
    RuleTemplate,
    StellarCommunityCodec,
    ixp_shared_templates,
)
from repro.ixp import FilterAction
from repro.traffic import IpProtocol


class TestBlackholingRule:
    def test_drop_udp_source_port_constructor(self):
        rule = BlackholingRule.drop_udp_source_port(64500, "100.10.10.10/32", 123)
        assert rule.action is RuleAction.DROP
        assert rule.protocol is IpProtocol.UDP
        assert rule.src_port == 123
        assert rule.dst_prefix == Prefix.parse("100.10.10.10/32")

    def test_shape_constructor_requires_rate(self):
        rule = BlackholingRule.shape_udp_source_port(64500, "1.2.3.4/32", 123, rate_bps=2e8)
        assert rule.action is RuleAction.SHAPE
        assert rule.shape_rate_bps == 2e8
        with pytest.raises(ValueError):
            BlackholingRule(
                owner_asn=1, dst_prefix=Prefix.parse("1.2.3.4/32"), action=RuleAction.SHAPE
            )

    def test_drop_rule_must_not_carry_rate(self):
        with pytest.raises(ValueError):
            BlackholingRule(
                owner_asn=1,
                dst_prefix=Prefix.parse("1.2.3.4/32"),
                action=RuleAction.DROP,
                shape_rate_bps=100,
            )

    def test_invalid_owner_and_ports(self):
        with pytest.raises(ValueError):
            BlackholingRule(owner_asn=0, dst_prefix=Prefix.parse("1.2.3.4/32"))
        with pytest.raises(ValueError):
            BlackholingRule(owner_asn=1, dst_prefix=Prefix.parse("1.2.3.4/32"), src_port=70000)

    def test_to_qos_rule_drop(self):
        rule = BlackholingRule.drop_udp_source_port(64500, "1.2.3.4/32", 123)
        qos = rule.to_qos_rule()
        assert qos.action is FilterAction.DROP
        assert qos.rule_id == rule.rule_id
        assert qos.match.src_port == 123

    def test_to_qos_rule_shape(self):
        rule = BlackholingRule.shape_udp_source_port(64500, "1.2.3.4/32", 123, 1e8)
        qos = rule.to_qos_rule()
        assert qos.action is FilterAction.SHAPE
        assert qos.shape_rate_bps == 1e8

    def test_resource_footprint(self):
        rule = BlackholingRule.drop_udp_source_port(64500, "1.2.3.4/32", 123)
        assert rule.flow_match().l3l4_criteria == 3
        assert rule.flow_match().mac_filter_entries == 0
        mac_rule = BlackholingRule(
            owner_asn=1, dst_prefix=Prefix.parse("1.2.3.4/32"), src_mac="02:00:00:00:00:01"
        )
        assert mac_rule.flow_match().mac_filter_entries == 1

    def test_rule_ids_are_unique(self):
        a = BlackholingRule(owner_asn=1, dst_prefix=Prefix.parse("1.2.3.4/32"))
        b = BlackholingRule(owner_asn=1, dst_prefix=Prefix.parse("1.2.3.4/32"))
        assert a.rule_id != b.rule_id

    def test_str_rendering(self):
        rule = BlackholingRule.shape_udp_source_port(64500, "1.2.3.4/32", 123, 2e8)
        text = str(rule)
        assert "shape" in text and "123" in text and "200Mbps" in text


class TestCommunityCodec:
    def setup_method(self):
        self.codec = StellarCommunityCodec(ixp_asn=64700)

    def test_requires_16bit_asn(self):
        with pytest.raises(ValueError):
            StellarCommunityCodec(ixp_asn=4200000000)

    def test_encode_udp_src_port_drop_is_single_community(self):
        rule = BlackholingRule.drop_udp_source_port(64500, "1.2.3.4/32", 123)
        communities = self.codec.encode(rule)
        assert len(communities) == 1
        community = next(iter(communities))
        assert community.global_admin == 64700
        assert (community.local_admin >> 24) == 2  # UDP source selector
        assert (community.local_admin & 0xFFFF) == 123

    def test_roundtrip_drop_rule(self):
        rule = BlackholingRule.drop_udp_source_port(64500, "100.10.10.10/32", 11211)
        decoded, predefined = self.codec.to_rule(
            self.codec.encode(rule), owner_asn=64500, dst_prefix=rule.dst_prefix
        )
        assert predefined is None
        assert decoded.action is RuleAction.DROP
        assert decoded.protocol is IpProtocol.UDP
        assert decoded.src_port == 11211
        assert decoded.dst_prefix == rule.dst_prefix

    def test_roundtrip_shape_rule(self):
        rule = BlackholingRule.shape_udp_source_port(64500, "1.2.3.4/32", 123, rate_bps=200e6)
        decoded, _ = self.codec.to_rule(
            self.codec.encode(rule), owner_asn=64500, dst_prefix=rule.dst_prefix
        )
        assert decoded.action is RuleAction.SHAPE
        assert decoded.shape_rate_bps == pytest.approx(200e6)

    def test_roundtrip_tcp_dst_port(self):
        rule = BlackholingRule(
            owner_asn=64500,
            dst_prefix=Prefix.parse("1.2.3.4/32"),
            protocol=IpProtocol.TCP,
            dst_port=80,
        )
        decoded, _ = self.codec.to_rule(
            self.codec.encode(rule), owner_asn=64500, dst_prefix=rule.dst_prefix
        )
        assert decoded.protocol is IpProtocol.TCP
        assert decoded.dst_port == 80
        assert decoded.src_port is None

    def test_roundtrip_protocol_only(self):
        rule = BlackholingRule.drop_protocol(64500, "1.2.3.4/32", IpProtocol.UDP)
        decoded, _ = self.codec.to_rule(
            self.codec.encode(rule), owner_asn=64500, dst_prefix=rule.dst_prefix
        )
        assert decoded.protocol is IpProtocol.UDP
        assert decoded.src_port is None

    def test_roundtrip_plain_drop_all(self):
        rule = BlackholingRule(owner_asn=64500, dst_prefix=Prefix.parse("1.2.3.4/32"))
        communities = self.codec.encode(rule)
        assert len(communities) == 1
        decoded, _ = self.codec.to_rule(communities, owner_asn=64500, dst_prefix=rule.dst_prefix)
        selectors = (decoded.protocol, decoded.src_port, decoded.dst_port, decoded.src_mac)
        assert selectors == (None, None, None, None) and decoded.src_prefix is None
        assert decoded.action is RuleAction.DROP

    def test_port_rule_requires_l4_protocol(self):
        rule = BlackholingRule(
            owner_asn=64500, dst_prefix=Prefix.parse("1.2.3.4/32"), src_port=123
        )
        with pytest.raises(ValueError):
            self.codec.encode(rule)

    def test_predefined_reference_roundtrip(self):
        communities = self.codec.encode_predefined(3)
        rule, predefined = self.codec.to_rule(
            communities, owner_asn=64500, dst_prefix=Prefix.parse("1.2.3.4/32")
        )
        assert rule is None
        assert predefined == 3

    @pytest.mark.parametrize("rule_id", [-1, 2**32])
    def test_predefined_reference_must_fit_32_bits(self, rule_id):
        with pytest.raises(ValueError, match="32 bits"):
            self.codec.encode_predefined(rule_id)

    @pytest.mark.parametrize("rule_id", sorted(ixp_shared_templates()))
    def test_each_shared_template_roundtrips_as_explicit_communities(self, rule_id):
        # A member may signal a shared template's rule spelled out in full
        # instead of by reference; both must describe the same filter.
        prefix = Prefix.parse("100.10.10.10/32")
        rule = ixp_shared_templates()[rule_id].instantiate(64500, prefix)
        decoded, predefined = self.codec.to_rule(
            self.codec.encode(rule), owner_asn=64500, dst_prefix=prefix
        )
        assert predefined is None
        assert (decoded.action, decoded.protocol, decoded.src_port, decoded.dst_port) == (
            rule.action,
            rule.protocol,
            rule.src_port,
            rule.dst_port,
        )

    def test_decode_rejects_foreign_communities(self):
        foreign = ExtendedCommunity(type=0x02, subtype=0x01, global_admin=1, local_admin=1)
        with pytest.raises(CommunityDecodeError):
            self.codec.decode([foreign])

    def test_decode_rejects_unknown_subtype(self):
        bogus = ExtendedCommunity(type=0x80, subtype=0x7F, global_admin=64700, local_admin=1)
        with pytest.raises(CommunityDecodeError):
            self.codec.decode([bogus])

    def test_decode_rejects_unknown_selector(self):
        bogus = ExtendedCommunity(
            type=0x80, subtype=0x01, global_admin=64700, local_admin=(9 << 24) | 80
        )
        with pytest.raises(CommunityDecodeError):
            self.codec.decode([bogus])

    def test_is_stellar_community_checks_asn(self):
        other_ixp = ExtendedCommunity(type=0x80, subtype=0x01, global_admin=6695, local_admin=1)
        assert not self.codec.is_stellar_community(other_ixp)

    @given(l4_protocols, l4_ports, st.booleans())
    def test_property_port_rules_roundtrip(self, protocol, port, use_src):
        rule = BlackholingRule(
            owner_asn=64500,
            dst_prefix=Prefix.parse("100.10.10.10/32"),
            protocol=protocol,
            src_port=port if use_src else None,
            dst_port=None if use_src else port,
        )
        decoded, _ = self.codec.to_rule(
            self.codec.encode(rule), owner_asn=64500, dst_prefix=rule.dst_prefix
        )
        assert decoded.protocol is protocol
        assert decoded.src_port == rule.src_port
        assert decoded.dst_port == rule.dst_port


class TestCustomerPortal:
    def test_shared_templates_cover_paper_vectors(self):
        templates = ixp_shared_templates()
        ports = {template.src_port for template in templates.values()}
        assert {123, 53, 11211, 389, 19, 0} <= ports

    def test_resolve_shared_template(self):
        portal = CustomerPortal()
        rule = portal.resolve(1, member_asn=64500, dst_prefix=Prefix.parse("1.2.3.4/32"))
        assert rule.src_port == 123
        assert rule.owner_asn == 64500

    def test_resolve_unknown_id(self):
        with pytest.raises(KeyError):
            CustomerPortal().resolve(999, 64500, Prefix.parse("1.2.3.4/32"))

    def test_custom_rule_lifecycle(self):
        portal = CustomerPortal()
        rule_id = portal.define_custom_rule(
            64500, RuleTemplate(name="drop-tcp-80", protocol=IpProtocol.TCP, dst_port=80)
        )
        assert rule_id >= CustomerPortal.CUSTOM_RULE_ID_BASE
        resolved = portal.resolve(rule_id, 64500, Prefix.parse("1.2.3.4/32"))
        assert resolved.dst_port == 80
        assert portal.remove_custom_rule(64500, rule_id)
        assert not portal.remove_custom_rule(64500, rule_id)

    def test_custom_rule_is_private_to_owner(self):
        portal = CustomerPortal()
        rule_id = portal.define_custom_rule(64500, RuleTemplate(name="x", protocol=IpProtocol.UDP))
        with pytest.raises(PermissionError):
            portal.resolve(rule_id, 64999, Prefix.parse("1.2.3.4/32"))
        assert not portal.remove_custom_rule(64999, rule_id)

    def test_shape_template(self):
        portal = CustomerPortal()
        rule_id = portal.define_custom_rule(
            64500,
            RuleTemplate(
                name="shape-ntp", action=RuleAction.SHAPE, protocol=IpProtocol.UDP,
                src_port=123, shape_rate_bps=1e8,
            ),
        )
        rule = portal.resolve(rule_id, 64500, Prefix.parse("1.2.3.4/32"))
        assert rule.action is RuleAction.SHAPE
        assert rule.shape_rate_bps == 1e8

    def test_invalid_member_asn(self):
        with pytest.raises(ValueError):
            CustomerPortal().define_custom_rule(0, RuleTemplate(name="x"))
