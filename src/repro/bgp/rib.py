"""Routing Information Base (RIB).

:class:`RoutingInformationBase` is a multi-path RIB keyed by
``(prefix, neighbor ASN, path id)``.  The route server stores accepted
routes in one, and the blackholing controller keeps another, fed over
iBGP with ADD-PATH, so it sees *all* paths for a prefix rather than only
the route server's best path (paper §4.3).  The controller derives its
rule set from the whole RIB and diffs *rule sets*, not RIB snapshots
(paper §4.4).
"""

from __future__ import annotations

from collections.abc import Iterator

from .messages import RouteAnnouncement
from .prefix import Prefix

#: RIB entries are keyed by (prefix, neighbor ASN, ADD-PATH path id).
RibKey = tuple[Prefix, int, int]


def _key_for(route: RouteAnnouncement) -> RibKey:
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
        self._routes[_key_for(route)] = route

    def remove_route(self, route: RouteAnnouncement) -> bool:
        """Remove a specific route object.  Returns True if found."""
        return self._routes.pop(_key_for(route), None) is not None

    def routes(self) -> Iterator[RouteAnnouncement]:
        """Iterate over all routes."""
        return iter(self._routes.values())

    def routes_for(self, prefix: Prefix) -> list[RouteAnnouncement]:
        """All routes (from all neighbours / path ids) for an exact prefix."""
        return [route for key, route in self._routes.items() if key[0] == prefix]
