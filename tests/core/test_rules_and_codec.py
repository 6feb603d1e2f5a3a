"""Tests for blackholing rules, the extended-community codec and the portal."""

import dataclasses

import pytest
from hypothesis import given

from fuzz.strategies import encodable_rules, unencodable_rules

from repro.bgp import ExtendedCommunity, Prefix
from repro.core import (
    BlackholingRule,
    CommunityDecodeError,
    CustomerPortal,
    RuleTemplate,
    StellarCommunityCodec,
    UnencodableRuleError,
    fine_grained_set,
    ixp_shared_templates,
)
from repro.ixp import FilterAction, FlowMatch, QosRule
from repro.traffic import IpProtocol

HOST = Prefix.parse("1.2.3.4/32")

class TestBlackholingRule:
    def test_is_an_owner_and_the_qos_rule_it_installs(self):
        assert [field.name for field in dataclasses.fields(BlackholingRule)] == [
            "owner_asn",
            "qos",
        ]

    def test_drop_udp_source_port_constructor(self):
        rule = BlackholingRule.drop_udp_source_port(64500, "100.10.10.10/32", 123)
        assert rule.owner_asn == 64500
        match = FlowMatch(
            dst_prefix=Prefix.parse("100.10.10.10/32"), protocol=IpProtocol.UDP, src_port=123
        )
        assert rule.qos == QosRule(match, FilterAction.DROP, rule_id=rule.qos.rule_id)
        assert rule.qos.match.protocol is IpProtocol.UDP

    def test_shape_constructor_requires_rate(self):
        rule = BlackholingRule.shape_udp_source_port(64500, "1.2.3.4/32", 123, rate_bps=2e8)
        assert rule.qos.action is FilterAction.SHAPE
        assert rule.qos.shape_rate_bps == 2e8
        assert rule.qos.match.src_port == 123
        with pytest.raises(ValueError):
            BlackholingRule.create(1, FlowMatch(dst_prefix=HOST), FilterAction.SHAPE)

    def test_drop_rule_must_not_carry_rate(self):
        with pytest.raises(ValueError):
            BlackholingRule.create(1, FlowMatch(dst_prefix=HOST), FilterAction.DROP, 100)

    def test_invalid_owner_ports_prefix_and_action(self):
        with pytest.raises(ValueError):
            BlackholingRule.create(0, FlowMatch(dst_prefix=HOST))
        with pytest.raises(ValueError):
            BlackholingRule.create(1, FlowMatch(dst_prefix=HOST, src_port=70000))
        with pytest.raises(ValueError, match="dst_prefix"):
            BlackholingRule.create(1, FlowMatch(protocol=IpProtocol.UDP))
        with pytest.raises(ValueError, match="drops or shapes"):
            BlackholingRule.create(1, FlowMatch(dst_prefix=HOST), FilterAction.FORWARD)

    def test_resource_footprint(self):
        rule = BlackholingRule.drop_udp_source_port(64500, "1.2.3.4/32", 123)
        assert rule.qos.match.l3l4_criteria == 3
        assert rule.qos.match.mac_filter_entries == 0
        mac_rule = BlackholingRule.create(
            1, FlowMatch(dst_prefix=HOST, src_mac="02:00:00:00:00:01")
        )
        assert mac_rule.qos.match.mac_filter_entries == 1

    def test_rule_ids_are_unique_unless_given(self):
        a = BlackholingRule.create(1, FlowMatch(dst_prefix=HOST))
        b = BlackholingRule.drop_protocol(1, HOST, IpProtocol.UDP)
        assert a.qos.rule_id != b.qos.rule_id
        assert a.qos.rule_id.startswith("bh-")
        fixed = BlackholingRule.drop_udp_source_port(1, HOST, 123, rule_id="fixed")
        assert fixed.qos.rule_id == "fixed"
        shaped = BlackholingRule.shape_udp_source_port(1, HOST, 123, 1e6, rule_id="telemetry")
        assert shaped.qos.rule_id == "telemetry"
        proto = BlackholingRule.drop_protocol(1, HOST, IpProtocol.TCP, rule_id="tcp")
        assert proto.qos.rule_id == "tcp"

    def test_fine_grained_set_is_host_major_qos_rules(self):
        rules = fine_grained_set(["10.0.0.1", "10.0.0.2"], [53, 123], count=3, shape_every=3)
        assert [(str(r.match.dst_prefix), r.match.src_port) for r in rules] == [
            ("10.0.0.1/32", 53),
            ("10.0.0.1/32", 123),
            ("10.0.0.2/32", 53),
        ]
        assert [r.action for r in rules] == [FilterAction.DROP] * 2 + [FilterAction.SHAPE]
        assert len({r.rule_id for r in rules}) == 3
        with pytest.raises(ValueError, match="exceeds"):
            fine_grained_set(["10.0.0.1"], [53], count=2)

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
        decoded = self.codec.decode(self.codec.encode(rule)).instantiate(
            64500, rule.qos.match.dst_prefix
        )
        assert decoded.owner_asn == 64500
        assert decoded.qos.action is FilterAction.DROP
        assert decoded.qos.match == rule.qos.match
        assert decoded.qos.match.protocol is IpProtocol.UDP

    def test_roundtrip_shape_rule(self):
        rule = BlackholingRule.shape_udp_source_port(64500, "1.2.3.4/32", 123, rate_bps=200e6)
        decoded = self.codec.decode(self.codec.encode(rule)).instantiate(64500, HOST)
        assert decoded.qos.action is FilterAction.SHAPE
        assert decoded.qos.shape_rate_bps == pytest.approx(200e6)

    def test_roundtrip_tcp_dst_port(self):
        match = FlowMatch(dst_prefix=HOST, protocol=IpProtocol.TCP, dst_port=80)
        rule = BlackholingRule.create(64500, match)
        decoded = self.codec.decode(self.codec.encode(rule)).instantiate(64500, HOST)
        assert decoded.qos.match == match
        assert decoded.qos.match.protocol is IpProtocol.TCP

    def test_roundtrip_protocol_only(self):
        rule = BlackholingRule.drop_protocol(64500, "1.2.3.4/32", IpProtocol.UDP)
        decoded = self.codec.decode(self.codec.encode(rule)).instantiate(64500, HOST)
        assert decoded.qos.match == FlowMatch(dst_prefix=HOST, protocol=IpProtocol.UDP)

    def test_decode_takes_every_8_bit_protocol_encode_emits(self):
        for protocol in (0, 99, 255):
            rule = BlackholingRule.drop_protocol(64500, "1.2.3.4/32", protocol)
            decoded = self.codec.decode(self.codec.encode(rule)).instantiate(64500, HOST)
            assert decoded.qos.match == FlowMatch(dst_prefix=HOST, protocol=protocol)
        too_wide = ExtendedCommunity(type=0x80, subtype=0x02, global_admin=64700, local_admin=256)
        with pytest.raises(CommunityDecodeError, match="8 bits"):
            self.codec.decode([too_wide])

    def test_roundtrip_plain_drop_all(self):
        rule = BlackholingRule.create(64500, FlowMatch(dst_prefix=HOST))
        communities = self.codec.encode(rule)
        assert len(communities) == 1
        decoded = self.codec.decode(communities).instantiate(64500, HOST)
        assert decoded.qos.match == FlowMatch(dst_prefix=HOST)
        assert decoded.qos.action is FilterAction.DROP

    def test_decode_gives_a_prefix_less_template(self):
        rule = BlackholingRule.shape_udp_source_port(64500, "1.2.3.4/32", 123, rate_bps=2e6)
        template = self.codec.decode(self.codec.encode(rule))
        assert template.match == FlowMatch(protocol=IpProtocol.UDP, src_port=123)
        assert (template.action, template.shape_rate_bps) == (FilterAction.SHAPE, 2e6)

    def test_port_rule_requires_l4_protocol(self):
        rule = BlackholingRule.create(64500, FlowMatch(dst_prefix=HOST, src_port=123))
        with pytest.raises(UnencodableRuleError, match="UDP or TCP"):
            self.codec.encode(rule)

    @pytest.mark.parametrize(
        "criteria",
        [{"src_mac": "02:00:00:00:fd:e8"}, {"src_prefix": Prefix.parse("198.51.100.0/24")}],
    )
    def test_a_source_criterion_is_refused(self, criteria):
        match = FlowMatch(dst_prefix=HOST, protocol=IpProtocol.UDP, src_port=123, **criteria)
        with pytest.raises(UnencodableRuleError, match="source MAC or source prefix"):
            self.codec.encode(BlackholingRule.create(64500, match))

    @pytest.mark.parametrize("rate_bps", [5e5, 1.5e6, 2**32 * 1e6])
    def test_a_rate_the_rate_community_cannot_carry_is_refused(self, rate_bps):
        rule = BlackholingRule.shape_udp_source_port(64500, "1.2.3.4/32", 123, rate_bps)
        with pytest.raises(UnencodableRuleError, match="whole number of Mbit/s"):
            self.codec.encode(rule)

    def test_predefined_reference_roundtrip(self):
        assert self.codec.decode(self.codec.encode_predefined(3)) == 3

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
        decoded = self.codec.decode(self.codec.encode(rule)).instantiate(64500, prefix)
        assert (decoded.qos.action, decoded.qos.match) == (rule.qos.action, rule.qos.match)

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

    @given(encodable_rules())
    def test_property_every_encodable_rule_roundtrips(self, rule):
        template = self.codec.decode(self.codec.encode(rule))
        decoded = template.instantiate(rule.owner_asn, rule.qos.match.dst_prefix)
        assert decoded.qos.match == rule.qos.match
        assert (decoded.qos.action, decoded.qos.shape_rate_bps) == (
            rule.qos.action,
            rule.qos.shape_rate_bps,
        )

    @given(unencodable_rules())
    def test_property_every_rule_outside_the_domain_is_refused(self, rule):
        with pytest.raises(UnencodableRuleError):
            self.codec.encode(rule)


class TestCustomerPortal:
    def test_shared_templates_cover_paper_vectors(self):
        templates = ixp_shared_templates()
        ports = {template.match.src_port for template in templates.values()}
        assert {123, 53, 11211, 389, 19, 0} <= ports

    def test_resolve_shared_template(self):
        portal = CustomerPortal()
        rule = portal.resolve(1, member_asn=64500, dst_prefix=Prefix.parse("1.2.3.4/32"))
        assert rule.qos.match.src_port == 123
        assert rule.qos.match.dst_prefix == HOST
        assert rule.owner_asn == 64500

    def test_resolve_unknown_id(self):
        with pytest.raises(KeyError):
            CustomerPortal().resolve(999, 64500, Prefix.parse("1.2.3.4/32"))

    def test_custom_rule_lifecycle(self):
        portal = CustomerPortal()
        rule_id = portal.define_custom_rule(
            64500,
            RuleTemplate(name="drop-tcp-80", match=FlowMatch(protocol=IpProtocol.TCP, dst_port=80)),
        )
        assert rule_id >= CustomerPortal.CUSTOM_RULE_ID_BASE
        resolved = portal.resolve(rule_id, 64500, Prefix.parse("1.2.3.4/32"))
        assert resolved.qos.match.dst_port == 80
        assert portal.remove_custom_rule(64500, rule_id)
        assert not portal.remove_custom_rule(64500, rule_id)

    def test_custom_rule_is_private_to_owner(self):
        portal = CustomerPortal()
        template = RuleTemplate(name="x", match=FlowMatch(protocol=IpProtocol.UDP))
        rule_id = portal.define_custom_rule(64500, template)
        with pytest.raises(PermissionError):
            portal.resolve(rule_id, 64999, Prefix.parse("1.2.3.4/32"))
        assert not portal.remove_custom_rule(64999, rule_id)

    def test_shape_template(self):
        portal = CustomerPortal()
        rule_id = portal.define_custom_rule(
            64500,
            RuleTemplate(
                name="shape-ntp",
                match=FlowMatch(protocol=IpProtocol.UDP, src_port=123),
                action=FilterAction.SHAPE,
                shape_rate_bps=1e8,
            ),
        )
        rule = portal.resolve(rule_id, 64500, Prefix.parse("1.2.3.4/32"))
        assert rule.qos.action is FilterAction.SHAPE
        assert rule.qos.shape_rate_bps == 1e8

    def test_invalid_member_asn(self):
        with pytest.raises(ValueError):
            CustomerPortal().define_custom_rule(0, RuleTemplate(name="x"))
