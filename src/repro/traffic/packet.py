"""Packet-level constants: IP protocol numbers and well-known L4 ports.

The reproduction is flow-level (see :mod:`repro.traffic.flowtable`); the
traffic models and rule matchers share these numbers.
"""

from __future__ import annotations

from enum import IntEnum


class IpProtocol(IntEnum):
    """IANA protocol numbers used throughout the reproduction."""

    ICMP = 1
    TCP = 6
    UDP = 17
    GRE = 47
    ESP = 50
    ICMPV6 = 58


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
