"""RPKI Route Origin Authorization (ROA) validation.

The route server's import policy performs RPKI origin validation in
addition to IRR filtering (paper §4.3).  The model implements RFC 6811
semantics: an announcement is *valid* if a covering ROA authorises the
origin ASN and the prefix length does not exceed the ROA's ``max_length``;
*invalid* if covering ROAs exist but none matches; and *not found* when no
covering ROA exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .prefix import Prefix, parse_prefix


class RpkiValidity(Enum):
    """RFC 6811 origin-validation states."""

    VALID = "valid"
    INVALID = "invalid"
    NOT_FOUND = "not_found"


@dataclass(frozen=True)
class Roa:
    """A Route Origin Authorization."""

    prefix: Prefix
    max_length: int
    asn: int

    def __post_init__(self) -> None:
        limit = 32 if self.prefix.version == 4 else 128
        if not self.prefix.length <= self.max_length <= limit:
            raise ValueError(
                f"max_length {self.max_length} must lie between the prefix length "
                f"{self.prefix.length} and {limit}"
            )
        if self.asn < 0:
            raise ValueError(f"ASN must be non-negative, got {self.asn}")

    def covers(self, prefix: Prefix) -> bool:
        """True if the ROA's prefix covers ``prefix`` (ignoring max_length)."""
        return self.prefix.contains(prefix)

    def authorizes(self, prefix: Prefix, origin_asn: int) -> bool:
        """True if the ROA makes (prefix, origin) a VALID pair."""
        return (
            self.covers(prefix)
            and prefix.length <= self.max_length
            and origin_asn == self.asn
            and self.asn != 0  # AS0 ROAs only ever invalidate
        )


class RpkiValidator:
    """Validated-ROA-payload cache with RFC 6811 validation."""

    def __init__(self) -> None:
        self._roas: list[Roa] = []

    def add_roa(
        self, prefix: "str | Prefix", asn: int, max_length: int | None = None
    ) -> Roa:
        """Add a ROA.  ``max_length`` defaults to the prefix length."""
        prefix = parse_prefix(prefix)
        roa = Roa(
            prefix=prefix,
            max_length=prefix.length if max_length is None else max_length,
            asn=asn,
        )
        self._roas.append(roa)
        return roa

    def validate(self, prefix: "str | Prefix", origin_asn: int) -> RpkiValidity:
        """Classify an announcement per RFC 6811."""
        prefix = parse_prefix(prefix)
        covering = [roa for roa in self._roas if roa.covers(prefix)]
        if not covering:
            return RpkiValidity.NOT_FOUND
        if any(roa.authorizes(prefix, origin_asn) for roa in covering):
            return RpkiValidity.VALID
        return RpkiValidity.INVALID

    def __len__(self) -> int:
        return len(self._roas)
