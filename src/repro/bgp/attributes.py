"""BGP path attributes.

The attribute set carried by :class:`~repro.bgp.messages.RouteAnnouncement`
objects.  Only the attributes the reproduction needs are modelled (origin,
AS path, next hop, MED, local preference and the two community flavours).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

from .communities import ExtendedCommunity, StandardCommunity


class Origin(Enum):
    """BGP ORIGIN attribute values (RFC 4271 §5.1.1)."""

    IGP = 0
    EGP = 1
    INCOMPLETE = 2


@dataclass(frozen=True)
class PathAttributes:
    """Immutable bundle of the path attributes attached to an announcement."""

    origin: Origin = Origin.IGP
    as_path: tuple[int, ...] = ()
    next_hop: str = ""
    med: int = 0
    local_pref: int = 100
    communities: frozenset[StandardCommunity] = field(default_factory=frozenset)
    extended_communities: frozenset[ExtendedCommunity] = field(default_factory=frozenset)

    # ------------------------------------------------------------------
    # AS-path helpers
    # ------------------------------------------------------------------
    @property
    def origin_asn(self) -> int | None:
        """The rightmost ASN on the AS path (the originating AS)."""
        return self.as_path[-1] if self.as_path else None

    @property
    def neighbor_asn(self) -> int | None:
        """The leftmost ASN on the AS path (the announcing neighbour)."""
        return self.as_path[0] if self.as_path else None

    @property
    def as_path_length(self) -> int:
        return len(self.as_path)

    # ------------------------------------------------------------------
    # Community helpers
    # ------------------------------------------------------------------
    def with_communities(self, *communities: StandardCommunity) -> "PathAttributes":
        """Return a copy with additional standard communities."""
        return replace(self, communities=self.communities | frozenset(communities))

    def with_extended_communities(
        self, *communities: ExtendedCommunity
    ) -> "PathAttributes":
        """Return a copy with additional extended communities."""
        return replace(
            self,
            extended_communities=self.extended_communities | frozenset(communities),
        )

    def with_next_hop(self, next_hop: str) -> "PathAttributes":
        """Return a copy with the NEXT_HOP rewritten (e.g. to a blackhole IP)."""
        return replace(self, next_hop=next_hop)

    @property
    def has_blackhole_community(self) -> bool:
        """True if any attached standard community requests blackholing."""
        return any(community.is_blackhole for community in self.communities)
