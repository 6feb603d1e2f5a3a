"""Packet-level constants and helpers.

The reproduction is primarily flow-level (see :mod:`repro.traffic.flowtable`),
but the amplification-attack models reason about packet sizes (request
vs. response) and IP protocol numbers, which live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum


class IpProtocol(IntEnum):
    """IANA protocol numbers used throughout the reproduction."""

    ICMP = 1
    TCP = 6
    UDP = 17
    GRE = 47
    ESP = 50
    ICMPV6 = 58

    @classmethod
    def from_name(cls, name: str) -> "IpProtocol":
        """Parse a case-insensitive protocol name."""
        try:
            return cls[name.upper()]
        except KeyError as exc:
            raise ValueError(f"unknown IP protocol name {name!r}") from exc


#: Well-known L4 ports that the paper's port-distribution analysis singles
#: out (Fig. 2(c) and Fig. 3(a)).
class WellKnownPort(IntEnum):
    UNASSIGNED = 0
    CHARGEN = 19
    DNS = 53
    HTTP = 80
    NTP = 123
    SNMP = 161
    LDAP = 389
    HTTPS = 443
    SSDP = 1900
    RTMP = 1935
    HTTP_ALT = 8080
    MEMCACHED = 11211


#: Typical Ethernet MTU; responses larger than this are fragmented, which
#: is why amplification responses often arrive as large UDP datagrams
#: split across several packets.
ETHERNET_MTU = 1500

#: Minimum Ethernet frame size (without FCS).
MIN_FRAME_SIZE = 64


@dataclass(frozen=True)
class PacketTemplate:
    """A template describing packets of a flow (sizes, protocol, ports)."""

    protocol: IpProtocol
    src_port: int
    dst_port: int
    payload_bytes: int

    def __post_init__(self) -> None:
        for name in ("src_port", "dst_port"):
            port = getattr(self, name)
            if not 0 <= port <= 65535:
                raise ValueError(f"{name} must be a valid L4 port, got {port}")
        if self.payload_bytes < 0:
            raise ValueError("payload_bytes must be non-negative")

    @property
    def wire_bytes(self) -> int:
        """Approximate on-the-wire size: payload + L3/L4 + Ethernet overhead."""
        l4_header = 8 if self.protocol is IpProtocol.UDP else 20
        return max(MIN_FRAME_SIZE, self.payload_bytes + 20 + l4_header + 18)
