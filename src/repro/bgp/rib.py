"""Routing Information Base (RIB).

Two related structures:

* :class:`RoutingInformationBase` — a multi-path RIB keyed by
  ``(prefix, neighbor ASN, path id)``.  The blackholing controller keeps one
  of these fed over iBGP with ADD-PATH, so it sees *all* paths for a prefix
  rather than only the route server's best path (paper §4.3).
* :class:`RibDiff` — the difference between two RIB snapshots.  The
  controller computes diffs to derive the set of abstract configuration
  changes that must be pushed to the data plane (paper §4.4).

Best-path selection (a simplified RFC 4271 decision process) is provided
for the route server's client RIBs.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from typing import Optional

from .messages import RouteAnnouncement, RouteWithdrawal
from .prefix import Prefix

#: RIB entries are keyed by (prefix, neighbor ASN, ADD-PATH path id).
RibKey = tuple[Prefix, int, int]


def _key_for(route: RouteAnnouncement) -> RibKey:
    neighbor = route.attributes.neighbor_asn
    if neighbor is None:
        raise ValueError(f"route {route} has an empty AS path")
    return (route.prefix, neighbor, route.path_id)


@dataclass(frozen=True)
class RibDiff:
    """Routes added, removed or replaced between two RIB snapshots."""

    added: tuple[RouteAnnouncement, ...] = ()
    removed: tuple[RouteAnnouncement, ...] = ()
    changed: tuple[tuple[RouteAnnouncement, RouteAnnouncement], ...] = ()

    @property
    def is_empty(self) -> bool:
        return not (self.added or self.removed or self.changed)

    def __len__(self) -> int:
        return len(self.added) + len(self.removed) + len(self.changed)


class RoutingInformationBase:
    """A multi-path RIB with snapshot/diff support."""

    def __init__(self) -> None:
        self._routes: dict[RibKey, RouteAnnouncement] = {}

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, route: RouteAnnouncement) -> None:
        """Insert or replace a route."""
        self._routes[_key_for(route)] = route

    def withdraw(self, withdrawal: RouteWithdrawal, neighbor_asn: int) -> bool:
        """Remove the route matching the withdrawal.  Returns True if found."""
        key = (withdrawal.prefix, neighbor_asn, withdrawal.path_id)
        return self._routes.pop(key, None) is not None

    def remove_route(self, route: RouteAnnouncement) -> bool:
        """Remove a specific route object.  Returns True if found."""
        return self._routes.pop(_key_for(route), None) is not None

    def remove_neighbor(self, neighbor_asn: int) -> int:
        """Drop every route learned from ``neighbor_asn`` (session reset).

        Returns the number of routes removed.
        """
        keys = [key for key in self._routes if key[1] == neighbor_asn]
        for key in keys:
            del self._routes[key]
        return len(keys)

    def clear(self) -> None:
        self._routes.clear()

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def routes(self) -> Iterator[RouteAnnouncement]:
        """Iterate over all routes."""
        return iter(self._routes.values())

    def routes_for(self, prefix: Prefix) -> list[RouteAnnouncement]:
        """All routes (from all neighbours / path ids) for an exact prefix."""
        return [route for key, route in self._routes.items() if key[0] == prefix]

    def routes_from(self, neighbor_asn: int) -> list[RouteAnnouncement]:
        """All routes announced by a neighbour ASN."""
        return [route for key, route in self._routes.items() if key[1] == neighbor_asn]

    def covering_routes(self, prefix: Prefix) -> list[RouteAnnouncement]:
        """Routes whose prefix covers (is equal to or less specific than) ``prefix``."""
        return [route for route in self._routes.values() if route.prefix.contains(prefix)]

    def longest_match(self, address: str) -> Optional[RouteAnnouncement]:
        """Longest-prefix-match lookup for a destination address.

        Ties between paths for the same prefix are broken by the best-path
        decision process.
        """
        matching = [
            route
            for route in self._routes.values()
            if route.prefix.contains_address(address)
        ]
        if not matching:
            return None
        longest = max(route.prefix.length for route in matching)
        candidates = [route for route in matching if route.prefix.length == longest]
        return best_path(candidates)

    def prefixes(self) -> set[Prefix]:
        """The set of distinct prefixes present in the RIB."""
        return {key[0] for key in self._routes}

    def __len__(self) -> int:
        return len(self._routes)

    def __contains__(self, prefix: Prefix) -> bool:
        return any(key[0] == prefix for key in self._routes)

    # ------------------------------------------------------------------
    # Snapshot / diff
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[RibKey, RouteAnnouncement]:
        """Return a shallow copy of the RIB contents (routes are immutable)."""
        return dict(self._routes)

    @staticmethod
    def diff(
        before: dict[RibKey, RouteAnnouncement],
        after: dict[RibKey, RouteAnnouncement],
    ) -> RibDiff:
        """Compute the difference between two snapshots."""
        added = []
        removed = []
        changed = []
        for key, route in after.items():
            if key not in before:
                added.append(route)
            elif before[key] != route:
                changed.append((before[key], route))
        for key, route in before.items():
            if key not in after:
                removed.append(route)
        return RibDiff(
            added=tuple(added), removed=tuple(removed), changed=tuple(changed)
        )


def best_path(routes: Iterable[RouteAnnouncement]) -> Optional[RouteAnnouncement]:
    """Simplified BGP best-path selection.

    Preference order (highest first): LOCAL_PREF, shortest AS path, lowest
    ORIGIN, lowest MED, lowest neighbour ASN (deterministic tie-break).
    Returns ``None`` for an empty candidate set.
    """
    routes = list(routes)
    if not routes:
        return None

    def sort_key(route: RouteAnnouncement):
        attrs = route.attributes
        return (
            -attrs.local_pref,
            attrs.as_path_length,
            attrs.origin.value,
            attrs.med,
            attrs.neighbor_asn if attrs.neighbor_asn is not None else 2**32,
            route.path_id,
        )

    return min(routes, key=sort_key)
