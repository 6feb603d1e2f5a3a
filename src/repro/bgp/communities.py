"""BGP community attributes.

Two community flavours are modelled:

* **Standard communities** (RFC 1997) — 32-bit ``ASN:value`` tags.  The
  well-known ``BLACKHOLE`` community (RFC 7999, ``65535:666``) and the IXP
  specific ``IXP_ASN:666`` variant trigger classic RTBH.
* **Extended communities** (RFC 4360) — 64-bit typed values.  Stellar uses a
  dedicated extended-community namespace to encode fine-grained blackholing
  rules (see :mod:`repro.core.community_codec`).

Communities are frozen dataclasses so they can live in sets attached to
routes and be compared structurally.
"""

from __future__ import annotations

from dataclasses import dataclass

#: RFC 7999 well-known BLACKHOLE community.
WELL_KNOWN_BLACKHOLE = (65535, 666)

#: Conventional value used by IXPs for RTBH (``IXP_ASN:666``).
RTBH_COMMUNITY_VALUE = 666


def _check_16bit(value: int, label: str) -> None:
    if not 0 <= value <= 0xFFFF:
        raise ValueError(f"{label} must fit in 16 bits, got {value}")


def _check_32bit(value: int, label: str) -> None:
    if not 0 <= value <= 0xFFFFFFFF:
        raise ValueError(f"{label} must fit in 32 bits, got {value}")


@dataclass(frozen=True)
class StandardCommunity:
    """RFC 1997 community: 16-bit ASN, 16-bit value."""

    asn: int
    value: int

    def __post_init__(self) -> None:
        _check_16bit(self.asn, "asn")
        _check_16bit(self.value, "value")

    @property
    def is_blackhole(self) -> bool:
        """True for RFC 7999 BLACKHOLE or the conventional ``*:666`` tag."""
        return (self.asn, self.value) == WELL_KNOWN_BLACKHOLE or (
            self.value == RTBH_COMMUNITY_VALUE
        )

    def __str__(self) -> str:
        return f"{self.asn}:{self.value}"


@dataclass(frozen=True)
class ExtendedCommunity:
    """RFC 4360 extended community.

    The 8-byte value is modelled as ``(type, subtype, global_admin,
    local_admin)`` where ``global_admin`` is 16 bits and ``local_admin``
    32 bits (the "two-octet AS specific" encoding used by Stellar).
    """

    type: int
    subtype: int
    global_admin: int
    local_admin: int

    def __post_init__(self) -> None:
        if not 0 <= self.type <= 0xFF:
            raise ValueError(f"type must fit in 8 bits, got {self.type}")
        if not 0 <= self.subtype <= 0xFF:
            raise ValueError(f"subtype must fit in 8 bits, got {self.subtype}")
        _check_16bit(self.global_admin, "global_admin")
        _check_32bit(self.local_admin, "local_admin")

    def __str__(self) -> str:
        return (
            f"ext:{self.type:#04x}:{self.subtype:#04x}:"
            f"{self.global_admin}:{self.local_admin}"
        )


def rtbh_community(ixp_asn: int) -> StandardCommunity:
    """Return the IXP specific RTBH community (``IXP_ASN:666``)."""
    return StandardCommunity(ixp_asn, RTBH_COMMUNITY_VALUE)

