"""Internet Routing Registry (IRR) database model.

IXP route servers filter member announcements against IRR ``route`` objects
so that a member can only announce prefixes it (or one of its customers)
registered (paper §2.2 and §4.3: "routing hygiene").  The reproduction
models the IRR as an in-memory mapping from origin ASN to the set of
registered prefixes, with the usual "covering registration authorises more
specifics" semantics so that /32 blackholing announcements are accepted
when the covering /24 (or shorter) prefix is registered to the same origin.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable

from .prefix import Prefix, parse_prefix


class IrrDatabase:
    """In-memory IRR used by the route-server import policy."""

    def __init__(self) -> None:
        self._by_origin: dict[int, set[Prefix]] = defaultdict(set)

    def register(self, prefix: "str | Prefix", origin_asn: int) -> None:
        """Register a ``route`` object binding ``prefix`` to ``origin_asn``."""
        if origin_asn <= 0:
            raise ValueError(f"origin ASN must be positive, got {origin_asn}")
        self._by_origin[origin_asn].add(parse_prefix(prefix))

    def register_many(self, prefixes: Iterable["str | Prefix"], origin_asn: int) -> None:
        """Register several prefixes for the same origin ASN."""
        for prefix in prefixes:
            self.register(prefix, origin_asn)

    def is_authorized(self, prefix: "str | Prefix", origin_asn: int) -> bool:
        """True if ``origin_asn`` registered ``prefix`` or a covering prefix.

        Allowing more specifics of a registered covering prefix mirrors how
        IXPs accept /32 blackholing announcements for registered /24s.
        """
        prefix = parse_prefix(prefix)
        registered = self._by_origin.get(origin_asn)
        if not registered:
            return False
        return any(candidate.contains(prefix) for candidate in registered)
