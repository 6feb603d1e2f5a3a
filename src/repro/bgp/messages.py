"""BGP message model.

The reproduction does not serialise BGP to the wire; instead it models the
message types and their semantic payloads as value objects that flow between
member routers, the route server and Stellar's blackholing controller.  The
UPDATE message is the workhorse: it carries route announcements (NLRI plus
path attributes) and withdrawals.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .attributes import PathAttributes
from .prefix import Prefix, parse_prefix

_message_ids = itertools.count(1)


@dataclass(frozen=True)
class RouteAnnouncement:
    """A single NLRI (prefix) announced with a set of path attributes.

    ``path_id`` carries the ADD-PATH (RFC 7911) path identifier.  The route
    server uses distinct path identifiers when forwarding routes for the
    same prefix from different members to the blackholing controller so
    that best-path selection does not hide any of them.
    """

    prefix: Prefix
    attributes: PathAttributes
    path_id: int = 0

    @property
    def is_blackhole_request(self) -> bool:
        """True if the announcement carries an RTBH community."""
        return self.attributes.has_blackhole_community

    def __str__(self) -> str:
        return f"{self.prefix} via AS{self.attributes.neighbor_asn} (path_id={self.path_id})"


@dataclass(frozen=True)
class RouteWithdrawal:
    """Withdrawal of a previously announced prefix."""

    prefix: Prefix
    path_id: int = 0


@dataclass(frozen=True)
class UpdateMessage:
    """A BGP UPDATE carrying announcements and withdrawals."""

    sender_asn: int
    announcements: tuple[RouteAnnouncement, ...] = ()
    withdrawals: tuple[RouteWithdrawal, ...] = ()
    message_id: int = field(default_factory=lambda: next(_message_ids))

    def __len__(self) -> int:
        return len(self.announcements) + len(self.withdrawals)


def announcement(
    prefix: "str | Prefix", asn: int, next_hop: str = ""
) -> RouteAnnouncement:
    """A single-prefix announcement originated (and announced) by ``asn``."""
    return RouteAnnouncement(
        prefix=parse_prefix(prefix),
        attributes=PathAttributes(as_path=(asn,), next_hop=next_hop),
    )
