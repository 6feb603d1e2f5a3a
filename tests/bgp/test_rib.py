"""Tests for the multi-path RIB."""

import pytest

from repro.bgp import (
    PathAttributes,
    Prefix,
    RouteAnnouncement,
    RoutingInformationBase,
    announcement,
)


def make_route(prefix, asn, path_id=0, local_pref=100, as_path=None, med=0):
    attrs = PathAttributes(
        as_path=tuple(as_path) if as_path else (asn,),
        next_hop=f"10.0.0.{asn % 250}",
        local_pref=local_pref,
        med=med,
    )
    return RouteAnnouncement(prefix=Prefix.parse(prefix), attributes=attrs, path_id=path_id)


class TestRibBasics:
    def test_add_and_lookup(self):
        rib = RoutingInformationBase()
        route = make_route("100.10.10.0/24", 64500)
        rib.add(route)
        assert list(rib.routes()) == [route]
        assert route in rib.routes_for(Prefix.parse("100.10.10.0/24"))

    def test_add_replaces_same_key(self):
        rib = RoutingInformationBase()
        rib.add(make_route("100.10.10.0/24", 64500, local_pref=100))
        rib.add(make_route("100.10.10.0/24", 64500, local_pref=200))
        assert len(list(rib.routes())) == 1
        assert rib.routes_for(Prefix.parse("100.10.10.0/24"))[0].attributes.local_pref == 200

    def test_add_path_keeps_multiple_paths(self):
        rib = RoutingInformationBase()
        rib.add(make_route("100.10.10.0/24", 64500, path_id=1))
        rib.add(make_route("100.10.10.0/24", 64500, path_id=2))
        assert len(rib.routes_for(Prefix.parse("100.10.10.0/24"))) == 2

    def test_remove_route(self):
        rib = RoutingInformationBase()
        route = make_route("10.0.0.0/8", 1)
        rib.add(route)
        assert rib.remove_route(route)
        assert list(rib.routes()) == []
        assert not rib.remove_route(route)

    def test_routes_from_two_neighbours_are_kept_apart(self):
        rib = RoutingInformationBase()
        first = make_route("100.10.10.0/24", 64500)
        second = make_route("100.10.10.0/24", 64501)
        rib.add(first)
        rib.add(second)
        assert rib.routes_for(Prefix.parse("100.10.10.0/24")) == [first, second]
        assert rib.remove_route(first)
        assert rib.routes_for(Prefix.parse("100.10.10.0/24")) == [second]

    def test_routes_for_matches_the_exact_prefix_only(self):
        rib = RoutingInformationBase()
        rib.add(make_route("100.10.0.0/16", 64500))
        rib.add(make_route("100.10.10.10/32", 64500))
        (route,) = rib.routes_for(Prefix.parse("100.10.10.10/32"))
        assert route.prefix == Prefix.parse("100.10.10.10/32")
        assert rib.routes_for(Prefix.parse("100.10.10.0/24")) == []

    def test_empty_as_path_rejected(self):
        rib = RoutingInformationBase()
        route = RouteAnnouncement(prefix=Prefix.parse("10.0.0.0/8"), attributes=PathAttributes())
        with pytest.raises(ValueError):
            rib.add(route)

    def test_announcement_helper(self):
        route = announcement("100.10.10.10/32", 64500, next_hop="10.0.0.1")
        assert route.attributes.as_path == (64500,)
        assert route.attributes.next_hop == "10.0.0.1"
        assert route.attributes.origin_asn == 64500
