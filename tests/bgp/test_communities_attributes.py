"""Tests for BGP communities and path attributes."""

import pytest

from repro.bgp import (
    ExtendedCommunity,
    Origin,
    PathAttributes,
    StandardCommunity,
    rtbh_community,
)


class TestStandardCommunity:
    def test_rejects_values_over_16_bits(self):
        with pytest.raises(ValueError):
            StandardCommunity(70000, 1)
        with pytest.raises(ValueError):
            StandardCommunity(1, 70000)

    def test_is_blackhole_for_666_value(self):
        assert StandardCommunity(6695, 666).is_blackhole

    def test_is_blackhole_for_rfc7999(self):
        assert StandardCommunity(65535, 666).is_blackhole

    def test_ordinary_community_is_not_blackhole(self):
        assert not StandardCommunity(6695, 100).is_blackhole

    def test_rtbh_community_builder(self):
        assert rtbh_community(6695) == StandardCommunity(6695, 666)


class TestExtendedCommunity:
    def test_field_range_validation(self):
        with pytest.raises(ValueError):
            ExtendedCommunity(type=256, subtype=0, global_admin=0, local_admin=0)
        with pytest.raises(ValueError):
            ExtendedCommunity(type=0, subtype=300, global_admin=0, local_admin=0)
        with pytest.raises(ValueError):
            ExtendedCommunity(type=0, subtype=0, global_admin=2**16, local_admin=0)
        with pytest.raises(ValueError):
            ExtendedCommunity(type=0, subtype=0, global_admin=0, local_admin=2**32)


class TestPathAttributes:
    def test_defaults(self):
        attrs = PathAttributes()
        assert attrs.origin is Origin.IGP
        assert attrs.local_pref == 100
        assert attrs.as_path == ()
        assert attrs.origin_asn is None
        assert attrs.neighbor_asn is None

    def test_as_path_accessors(self):
        attrs = PathAttributes(as_path=(100, 200, 300))
        assert attrs.neighbor_asn == 100
        assert attrs.origin_asn == 300
        assert attrs.as_path_length == 3

    def test_with_communities_is_additive_and_pure(self):
        original = PathAttributes()
        tagged = original.with_communities(rtbh_community(6695))
        assert rtbh_community(6695) in tagged.communities
        assert original.communities == frozenset()

    def test_with_extended_communities(self):
        community = ExtendedCommunity(0x80, 0x01, 6695, 1)
        attrs = PathAttributes().with_extended_communities(community)
        assert community in attrs.extended_communities

    def test_with_next_hop(self):
        assert PathAttributes().with_next_hop("192.0.2.1").next_hop == "192.0.2.1"

    def test_has_blackhole_community(self):
        attrs = PathAttributes().with_communities(rtbh_community(6695))
        assert attrs.has_blackhole_community
        assert not PathAttributes().has_blackhole_community
