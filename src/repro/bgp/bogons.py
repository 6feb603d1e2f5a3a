"""Bogon prefix filtering.

Route servers reject announcements for "bogon" address space: RFC 1918
private ranges, loopback, link-local, documentation prefixes and other
space that must never appear in the global routing table (paper §4.3,
citing Feamster et al.'s empirical bogon study).  The default list below
covers the standard IPv4 and IPv6 special-purpose registries.
"""

from __future__ import annotations

from collections.abc import Iterable

from .prefix import Prefix, parse_prefix

#: Default IPv4 bogon prefixes (IANA special-purpose address registry).
DEFAULT_IPV4_BOGONS = (
    "0.0.0.0/8",        # "this network"
    "10.0.0.0/8",       # RFC 1918
    "100.64.0.0/10",    # carrier-grade NAT (RFC 6598)
    "127.0.0.0/8",      # loopback
    "169.254.0.0/16",   # link local
    "172.16.0.0/12",    # RFC 1918
    "192.0.0.0/24",     # IETF protocol assignments
    "192.0.2.0/24",     # TEST-NET-1
    "192.168.0.0/16",   # RFC 1918
    "198.18.0.0/15",    # benchmarking
    "198.51.100.0/24",  # TEST-NET-2
    "203.0.113.0/24",   # TEST-NET-3
    "224.0.0.0/4",      # multicast
    "240.0.0.0/4",      # reserved
)

#: Default IPv6 bogon prefixes.
DEFAULT_IPV6_BOGONS = (
    "::/8",             # unspecified / v4-mapped space
    "100::/64",         # discard-only
    "2001:db8::/32",    # documentation
    "fc00::/7",         # unique local
    "fe80::/10",        # link local
    "ff00::/8",         # multicast
)


class BogonFilter:
    """Checks whether a prefix falls inside (or equals) bogon space."""

    def __init__(self, bogons: Iterable["str | Prefix"] | None = None) -> None:
        source = (
            list(DEFAULT_IPV4_BOGONS) + list(DEFAULT_IPV6_BOGONS)
            if bogons is None
            else list(bogons)
        )
        self._bogons: list[Prefix] = [parse_prefix(prefix) for prefix in source]

    def is_bogon(self, prefix: "str | Prefix") -> bool:
        """True if the prefix overlaps bogon space in either direction.

        Both more-specifics of a bogon block and prefixes covering a bogon
        block are rejected, matching conservative route-server policy.
        """
        prefix = parse_prefix(prefix)
        return any(
            bogon.contains(prefix) or prefix.contains(bogon) for bogon in self._bogons
        )
