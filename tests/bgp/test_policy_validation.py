"""Tests for IRR, RPKI, bogon filtering and the route-server import policy."""

import pytest

from repro.bgp import (
    BogonFilter,
    ImportPolicy,
    IrrDatabase,
    PathAttributes,
    PolicyAction,
    Prefix,
    RejectReason,
    Roa,
    RouteAnnouncement,
    RpkiValidator,
    RpkiValidity,
    announcement,
    permissive_policy,
    rtbh_community,
)


class TestIrrDatabase:
    def test_register_and_authorize_exact(self):
        irr = IrrDatabase()
        irr.register("100.10.10.0/24", 64500)
        assert irr.is_authorized("100.10.10.0/24", 64500)

    def test_more_specific_of_registered_prefix_is_authorized(self):
        irr = IrrDatabase()
        irr.register("100.10.10.0/24", 64500)
        assert irr.is_authorized("100.10.10.10/32", 64500)

    def test_other_asn_is_not_authorized(self):
        irr = IrrDatabase()
        irr.register("100.10.10.0/24", 64500)
        assert not irr.is_authorized("100.10.10.0/24", 64501)

    def test_unregistered_prefix_rejected(self):
        irr = IrrDatabase()
        irr.register("100.10.10.0/24", 64500)
        assert not irr.is_authorized("200.1.1.0/24", 64500)

    def test_less_specific_than_registration_is_not_authorized(self):
        irr = IrrDatabase()
        irr.register("100.10.10.0/24", 64500)
        assert not irr.is_authorized("100.10.0.0/16", 64500)

    def test_register_many(self):
        irr = IrrDatabase()
        irr.register_many(["10.0.0.0/8", "11.0.0.0/8"], 64500)
        assert irr.is_authorized("10.0.0.0/8", 64500)
        assert irr.is_authorized("11.1.0.0/16", 64500)
        assert not irr.is_authorized("12.0.0.0/8", 64500)

    def test_ipv6_registration_authorises_its_more_specifics(self):
        irr = IrrDatabase()
        irr.register("2620:1::/32", 64500)
        assert irr.is_authorized("2620:1:2::1/128", 64500)
        assert not irr.is_authorized("2620:1:2::1/128", 64501)
        assert not irr.is_authorized("2620:2::/32", 64500)

    def test_registration_does_not_cross_address_families(self):
        irr = IrrDatabase()
        irr.register("0.0.0.0/0", 64500)
        assert irr.is_authorized("100.10.10.10/32", 64500)
        assert not irr.is_authorized("2620:1:2::1/128", 64500)

    def test_invalid_asn_rejected(self):
        with pytest.raises(ValueError):
            IrrDatabase().register("10.0.0.0/8", 0)


class TestRpkiValidator:
    def test_not_found_without_roas(self):
        assert RpkiValidator().validate("10.0.0.0/8", 64500) is RpkiValidity.NOT_FOUND

    def test_valid_with_matching_roa(self):
        rpki = RpkiValidator()
        rpki.add_roa("100.10.10.0/24", asn=64500, max_length=32)
        assert rpki.validate("100.10.10.10/32", 64500) is RpkiValidity.VALID

    def test_invalid_when_origin_differs(self):
        rpki = RpkiValidator()
        rpki.add_roa("100.10.10.0/24", asn=64500)
        assert rpki.validate("100.10.10.0/24", 64999) is RpkiValidity.INVALID

    def test_invalid_when_too_specific(self):
        rpki = RpkiValidator()
        rpki.add_roa("100.10.10.0/24", asn=64500)  # max_length defaults to 24
        assert rpki.validate("100.10.10.10/32", 64500) is RpkiValidity.INVALID

    def test_as0_roa_only_invalidates(self):
        rpki = RpkiValidator()
        rpki.add_roa("100.10.10.0/24", asn=0, max_length=32)
        assert rpki.validate("100.10.10.0/24", 0) is RpkiValidity.INVALID

    def test_max_length_validation(self):
        with pytest.raises(ValueError):
            RpkiValidator().add_roa("100.10.10.0/24", asn=1, max_length=16)


ROA_CASES = {
    # id: (ROA prefix, max length, ROA ASN, announced prefix, origin, authorises)
    "exact": ("100.10.10.0/24", 24, 64500, "100.10.10.0/24", 64500, True),
    "host-in-max-length": ("100.10.10.0/24", 32, 64500, "100.10.10.10/32", 64500, True),
    "beyond-max-length": ("100.10.10.0/24", 28, 64500, "100.10.10.10/32", 64500, False),
    "other-origin": ("100.10.10.0/24", 32, 64500, "100.10.10.10/32", 64501, False),
    "as0": ("100.10.10.0/24", 32, 0, "100.10.10.10/32", 0, False),
    "sibling": ("100.10.10.0/24", 32, 64500, "100.10.11.0/24", 64500, False),
    "less-specific": ("100.10.10.0/24", 32, 64500, "100.10.0.0/16", 64500, False),
    "ipv6-in-max-length": ("2620:1::/32", 48, 64500, "2620:1:2::/48", 64500, True),
}


class TestRoa:
    @pytest.mark.parametrize(
        "roa_prefix, max_length, roa_asn, prefix, origin, authorises",
        list(ROA_CASES.values()),
        ids=list(ROA_CASES),
    )
    def test_authorizes(self, roa_prefix, max_length, roa_asn, prefix, origin, authorises):
        roa = Roa(prefix=Prefix.parse(roa_prefix), max_length=max_length, asn=roa_asn)
        assert roa.authorizes(Prefix.parse(prefix), origin) is authorises
        # A validator holding only this ROA agrees: valid exactly when it
        # authorises, invalid whenever it covers the prefix but does not.
        rpki = RpkiValidator()
        rpki.add_roa(roa_prefix, asn=roa_asn, max_length=max_length)
        expected = (
            RpkiValidity.VALID
            if authorises
            else RpkiValidity.INVALID
            if roa.covers(Prefix.parse(prefix))
            else RpkiValidity.NOT_FOUND
        )
        assert rpki.validate(prefix, origin) is expected

    @pytest.mark.parametrize(
        "prefix, max_length, asn",
        [
            pytest.param("100.10.10.0/24", 16, 64500, id="max-length-below-prefix"),
            pytest.param("100.10.10.0/24", 33, 64500, id="max-length-above-ipv4"),
            pytest.param("2620:1::/32", 129, 64500, id="max-length-above-ipv6"),
            pytest.param("100.10.10.0/24", 24, -1, id="negative-asn"),
        ],
    )
    def test_rejects_invalid_fields(self, prefix, max_length, asn):
        with pytest.raises(ValueError):
            Roa(prefix=Prefix.parse(prefix), max_length=max_length, asn=asn)


class TestBogonFilter:
    def test_rfc1918_is_bogon(self):
        bogons = BogonFilter()
        assert bogons.is_bogon("10.1.2.0/24")
        assert bogons.is_bogon("192.168.1.0/24")

    def test_public_space_is_not_bogon(self):
        assert not BogonFilter().is_bogon("100.10.10.0/24")

    def test_covering_prefix_of_bogon_is_rejected(self):
        assert BogonFilter().is_bogon("0.0.0.0/0")

    def test_ipv6_bogons(self):
        bogons = BogonFilter()
        assert bogons.is_bogon("2001:db8::/48")
        assert not bogons.is_bogon("2600::/32")

    def test_custom_list(self):
        bogons = BogonFilter(bogons=["203.0.113.0/24"])
        assert bogons.is_bogon("203.0.113.0/25")
        assert not bogons.is_bogon("10.0.0.0/8")


def _make_policy():
    policy = ImportPolicy()
    policy.irr.register("100.10.10.0/24", 64500)
    return policy


class TestImportPolicy:
    def test_accepts_registered_prefix(self):
        policy = _make_policy()
        result = policy.evaluate(announcement("100.10.10.0/24", 64500, next_hop="10.0.0.1"))
        assert result.accepted

    def test_rejects_empty_as_path(self):
        policy = _make_policy()
        route = RouteAnnouncement(
            prefix=Prefix.parse("100.10.10.0/24"), attributes=PathAttributes(next_hop="10.0.0.1")
        )
        assert policy.evaluate(route).reason is RejectReason.EMPTY_AS_PATH

    def test_rejects_missing_next_hop(self):
        policy = _make_policy()
        route = RouteAnnouncement(
            prefix=Prefix.parse("100.10.10.0/24"), attributes=PathAttributes(as_path=(64500,))
        )
        assert policy.evaluate(route).reason is RejectReason.MISSING_NEXT_HOP

    def test_rejects_bogon(self):
        policy = _make_policy()
        result = policy.evaluate(announcement("10.1.0.0/16", 64500, next_hop="10.0.0.1"))
        assert result.reason is RejectReason.BOGON

    def test_rejects_unregistered_origin(self):
        policy = _make_policy()
        result = policy.evaluate(announcement("104.99.0.0/16", 64500, next_hop="10.0.0.1"))
        assert result.reason is RejectReason.IRR_UNAUTHORIZED

    def test_rejects_too_long_prefix_without_blackhole(self):
        policy = _make_policy()
        result = policy.evaluate(announcement("100.10.10.10/32", 64500, next_hop="10.0.0.1"))
        assert result.reason is RejectReason.PREFIX_TOO_LONG

    def test_accepts_host_route_with_blackhole_community(self):
        policy = _make_policy()
        route = announcement("100.10.10.10/32", 64500, next_hop="10.0.0.1")
        tagged = RouteAnnouncement(
            prefix=route.prefix,
            attributes=route.attributes.with_communities(rtbh_community(6695)),
        )
        assert policy.evaluate(tagged).accepted

    def test_accepts_host_route_with_extended_communities(self):
        from repro.bgp import ExtendedCommunity

        policy = _make_policy()
        route = announcement("100.10.10.10/32", 64500, next_hop="10.0.0.1")
        tagged = RouteAnnouncement(
            prefix=route.prefix,
            attributes=route.attributes.with_extended_communities(
                ExtendedCommunity(0x80, 0x01, 64700, 123)
            ),
        )
        assert policy.evaluate(tagged).accepted

    def test_rejects_too_short_prefix(self):
        policy = _make_policy()
        policy.irr.register("104.0.0.0/6", 64500)
        result = policy.evaluate(announcement("104.0.0.0/6", 64500, next_hop="10.0.0.1"))
        assert result.reason is RejectReason.PREFIX_TOO_SHORT

    def test_rejects_rpki_invalid(self):
        policy = _make_policy()
        policy.rpki.add_roa("100.10.10.0/24", asn=65000)
        result = policy.evaluate(announcement("100.10.10.0/24", 64500, next_hop="10.0.0.1"))
        assert result.reason is RejectReason.RPKI_INVALID

    def test_accepts_rpki_valid_more_specific_with_blackhole(self):
        policy = _make_policy()
        policy.rpki.add_roa("100.10.10.0/24", asn=64500, max_length=32)
        route = announcement("100.10.10.10/32", 64500, next_hop="10.0.0.1")
        tagged = RouteAnnouncement(
            prefix=route.prefix,
            attributes=route.attributes.with_communities(rtbh_community(6695)),
        )
        assert policy.evaluate(tagged).accepted

    def test_rejects_overlong_as_path(self):
        policy = _make_policy()
        attrs = PathAttributes(as_path=tuple([64500] * 40), next_hop="10.0.0.1")
        route = RouteAnnouncement(prefix=Prefix.parse("100.10.10.0/24"), attributes=attrs)
        assert policy.evaluate(route).reason is RejectReason.AS_PATH_TOO_LONG

    def test_permissive_policy_skips_irr_and_rpki(self):
        policy = permissive_policy()
        result = policy.evaluate(announcement("104.99.0.0/16", 64500, next_hop="10.0.0.1"))
        assert result.action is PolicyAction.ACCEPT

    def test_ipv6_prefix_length_limits(self):
        policy = permissive_policy()
        accepted = policy.evaluate(announcement("2001:db8:1::/48", 64500, next_hop="10.0.0.1"))
        # 2001:db8::/32 is documentation space (bogon), so use another block.
        assert accepted.reason in (RejectReason.BOGON, RejectReason.NONE)
        ok = policy.evaluate(announcement("2620:1:2::/48", 64500, next_hop="10.0.0.1"))
        assert ok.accepted
        too_long = policy.evaluate(announcement("2620:1:2::1/128", 64500, next_hop="10.0.0.1"))
        assert too_long.reason is RejectReason.PREFIX_TOO_LONG
