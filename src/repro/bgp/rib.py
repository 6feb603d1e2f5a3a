"""Routing Information Base (RIB).

:class:`RoutingInformationBase` is a multi-path RIB keyed by
``(prefix, neighbor ASN, path id)``.  The route server stores accepted
routes in one.  The blackholing controller keeps no RIB: it keys the rule
each southbound path decoded to by the same :data:`RibKey`, so it still
tells *all* paths for a prefix apart (ADD-PATH, paper §4.3), and diffs
*rule sets* (paper §4.4).
"""

from __future__ import annotations

from .messages import RouteAnnouncement
from .prefix import Prefix

#: RIB entries are keyed by (prefix, neighbor ASN, ADD-PATH path id).
RibKey = tuple[Prefix, int, int]


def rib_key(route: RouteAnnouncement) -> RibKey:
    """The key of a route; a route with an empty AS path has none."""
    neighbor = route.attributes.neighbor_asn
    if neighbor is None:
        raise ValueError(f"route {route} has an empty AS path")
    return (route.prefix, neighbor, route.path_id)


class RoutingInformationBase:
    """A multi-path RIB."""

    def __init__(self) -> None:
        self._routes: dict[RibKey, RouteAnnouncement] = {}

    def add(self, route: RouteAnnouncement) -> None:
        """Insert or replace a route."""
        self._routes[rib_key(route)] = route

    def remove_route(self, route: RouteAnnouncement) -> bool:
        """Remove a specific route object.  Returns True if found."""
        return self._routes.pop(rib_key(route), None) is not None

    def routes_for(self, prefix: Prefix) -> list[RouteAnnouncement]:
        """All routes (from all neighbours / path ids) for an exact prefix."""
        return [route for key, route in self._routes.items() if key[0] == prefix]
