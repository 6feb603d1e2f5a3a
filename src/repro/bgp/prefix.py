"""IP prefix handling for the BGP substrate.

Thin, validated wrappers around :mod:`ipaddress` networks.  Prefixes are
hashable value objects used as RIB keys, IRR/RPKI database entries, and
blackholing-rule destinations.  The paper's blackholing service operates
almost exclusively on IPv4 /32 host routes (98 % of blackholed prefixes),
but the model supports IPv6 as well.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from functools import cached_property, lru_cache, total_ordering
from typing import Union

_IPNetwork = Union[ipaddress.IPv4Network, ipaddress.IPv6Network]
_IPAddress = Union[ipaddress.IPv4Address, ipaddress.IPv6Address]


@lru_cache(maxsize=1 << 16)
def _address_key(text: str) -> tuple[int, int]:
    """Memoised ``(version, integer value)`` of an IP address string.

    Flow records carry addresses as strings and the data plane matches the
    same addresses against prefixes over and over (one classification per
    flow per interval), so parsing dominates without this cache.
    """
    address = ipaddress.ip_address(text)
    return address.version, int(address)


@total_ordering
@dataclass(frozen=True)
class Prefix:
    """An IPv4 or IPv6 prefix (network address + prefix length)."""

    network: _IPNetwork

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``"100.10.10.0/24"`` or a bare address (treated as a host)."""
        text = text.strip()
        if "/" not in text:
            address = ipaddress.ip_address(text)
            length = 32 if address.version == 4 else 128
            text = f"{address}/{length}"
        return cls(ipaddress.ip_network(text, strict=False))

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """IP version: 4 or 6."""
        return self.network.version

    @property
    def length(self) -> int:
        """Prefix length in bits."""
        return self.network.prefixlen

    @property
    def address(self) -> str:
        """Network address as a string (without the prefix length)."""
        return str(self.network.network_address)

    @cached_property
    def int_bounds(self) -> tuple[int, int]:
        """``(first, last)`` address of the prefix as integers.

        Cached because the data plane uses the bounds for both the scalar
        :meth:`contains_address` check and the vectorized column matchers.
        """
        return (
            int(self.network.network_address),
            int(self.network.broadcast_address),
        )

    # ------------------------------------------------------------------
    # Relations
    # ------------------------------------------------------------------
    def contains(self, other: "Prefix") -> bool:
        """True if ``other`` is equal to or more specific than this prefix."""
        if self.version != other.version:
            return False
        return other.network.subnet_of(self.network)

    def contains_address(self, address: str | _IPAddress) -> bool:
        """True if the address falls inside this prefix."""
        version, value = _address_key(str(address))
        if version != self.version:
            return False
        low, high = self.int_bounds
        return low <= value <= high

    # ------------------------------------------------------------------
    # Ordering / display
    # ------------------------------------------------------------------
    def __lt__(self, other: "Prefix") -> bool:
        if not isinstance(other, Prefix):
            return NotImplemented
        return (self.version, int(self.network.network_address), self.length) < (
            other.version,
            int(other.network.network_address),
            other.length,
        )

    def __str__(self) -> str:
        return str(self.network)

    def __repr__(self) -> str:
        return f"Prefix({self.network})"


def parse_prefix(value: "str | Prefix") -> Prefix:
    """Coerce a string or :class:`Prefix` into a :class:`Prefix`."""
    if isinstance(value, Prefix):
        return value
    return Prefix.parse(value)
