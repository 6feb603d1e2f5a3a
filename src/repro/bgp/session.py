"""BGP session model.

A :class:`BgpSession` is the route server's eBGP session with one member:
it records the UPDATEs the route server delivers to that member.  The
reproduction models no BGP finite-state machine, OPEN exchange or
capability negotiation; a session is up from the moment a member connects.

There is no iBGP session to the blackholing controller: the route server
hands every accepted path to it directly, and ADD-PATH is carried by the
path id on each southbound path
(:class:`~repro.bgp.messages.RouteAnnouncement`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .messages import UpdateMessage


@dataclass
class BgpSession:
    """The route server's session with the member ``peer_asn``."""

    peer_asn: int
    #: The UPDATEs delivered to the member, most recent last.
    updates: list[UpdateMessage] = field(default_factory=list)

    def deliver(self, message: UpdateMessage) -> None:
        """Deliver an UPDATE to the member."""
        self.updates.append(message)
