"""Tests for prefix handling."""

import pytest
from hypothesis import given, strategies as st

from repro.bgp import Prefix, parse_prefix


class TestParsing:
    def test_parse_ipv4_prefix(self):
        prefix = Prefix.parse("100.10.10.0/24")
        assert prefix.version == 4
        assert prefix.length == 24
        assert str(prefix) == "100.10.10.0/24"

    def test_parse_bare_address_becomes_host_route(self):
        prefix = Prefix.parse("100.10.10.10")
        assert prefix.length == 32

    def test_parse_non_strict_normalises_host_bits(self):
        prefix = Prefix.parse("100.10.10.10/24")
        assert prefix.address == "100.10.10.0"

    def test_parse_ipv6(self):
        prefix = Prefix.parse("2001:db8::/32")
        assert prefix.version == 6
        assert prefix.length == 32

    def test_parse_prefix_passthrough(self):
        prefix = Prefix.parse("10.0.0.0/8")
        assert parse_prefix(prefix) is prefix

    def test_parse_prefix_from_string(self):
        assert parse_prefix("10.0.0.0/8") == Prefix.parse("10.0.0.0/8")

    def test_invalid_string_raises(self):
        with pytest.raises(ValueError):
            Prefix.parse("not-an-ip")


class TestRelations:
    def test_contains_more_specific(self):
        parent = Prefix.parse("100.10.10.0/24")
        child = Prefix.parse("100.10.10.10/32")
        assert parent.contains(child)
        assert not child.contains(parent)

    def test_contains_self(self):
        prefix = Prefix.parse("10.0.0.0/8")
        assert prefix.contains(prefix)

    def test_contains_rejects_cross_family(self):
        v4 = Prefix.parse("10.0.0.0/8")
        v6 = Prefix.parse("2001:db8::/32")
        assert not v4.contains(v6)

    def test_contains_address(self):
        prefix = Prefix.parse("100.10.10.0/24")
        assert prefix.contains_address("100.10.10.55")
        assert not prefix.contains_address("100.10.11.1")

    def test_contains_address_cross_family(self):
        assert not Prefix.parse("10.0.0.0/8").contains_address("2001:db8::1")

    def test_ordering_is_by_address_then_length(self):
        a = Prefix.parse("10.0.0.0/8")
        b = Prefix.parse("10.0.0.0/16")
        c = Prefix.parse("11.0.0.0/8")
        assert sorted([c, b, a]) == [a, b, c]

    def test_hashable_and_equal(self):
        assert len({Prefix.parse("10.0.0.0/8"), Prefix.parse("10.0.0.0/8")}) == 1


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=8, max_value=32))
def test_property_prefix_contains_its_own_network_address(address_int, length):
    import ipaddress

    address = str(ipaddress.IPv4Address(address_int))
    prefix = Prefix.parse(f"{address}/{length}")
    assert prefix.contains_address(prefix.address)
    assert prefix.contains(Prefix.parse(prefix.address))

