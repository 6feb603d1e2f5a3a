"""BGP session model.

A strongly simplified BGP finite-state machine sufficient for the
reproduction: sessions are either eBGP (member ↔ route server) or iBGP
(route server ↔ blackholing controller), negotiate the ADD-PATH capability
at OPEN time, and deliver UPDATE messages to a registered consumer.

The full RFC 4271 FSM (Connect/Active/OpenSent/OpenConfirm timers,
collision detection, …) is intentionally collapsed into the two states
the experiments observe: ``IDLE`` and ``ESTABLISHED``.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .messages import OpenMessage, UpdateMessage


class SessionState(Enum):
    """Session life-cycle states."""

    IDLE = "idle"
    ESTABLISHED = "established"


class SessionType(Enum):
    """eBGP (between ASes) or iBGP (within the IXP's management AS)."""

    EBGP = "ebgp"
    IBGP = "ibgp"


class SessionError(RuntimeError):
    """Raised on protocol violations (e.g. UPDATE before OPEN)."""


@dataclass
class BgpSession:
    """One directed BGP session from ``local_asn`` to ``peer_asn``.

    ``on_update`` is invoked for every UPDATE delivered while the session
    is ESTABLISHED; this is how the route server and the blackholing
    controller consume announcements.
    """

    local_asn: int
    peer_asn: int
    session_type: SessionType = SessionType.EBGP
    add_path: bool = False
    on_update: Optional[Callable[[UpdateMessage], None]] = None
    state: SessionState = SessionState.IDLE
    #: Messages delivered over this session (most recent last).
    history: list[object] = field(default_factory=list)
    updates_received: int = 0

    def __post_init__(self) -> None:
        if self.session_type is SessionType.IBGP and self.local_asn != self.peer_asn:
            raise ValueError(
                "iBGP sessions require both endpoints in the same AS "
                f"(got {self.local_asn} and {self.peer_asn})"
            )
        if self.session_type is SessionType.EBGP and self.local_asn == self.peer_asn:
            raise ValueError("eBGP sessions require distinct ASNs")

    # ------------------------------------------------------------------
    # Life cycle
    # ------------------------------------------------------------------
    @property
    def is_established(self) -> bool:
        return self.state is SessionState.ESTABLISHED

    def open(self, message: Optional[OpenMessage] = None) -> None:
        """Establish the session, negotiating ADD-PATH from the OPEN."""
        if message is not None:
            self.history.append(message)
            # ADD-PATH is only active when both sides want it.
            self.add_path = self.add_path and message.add_path
        self.state = SessionState.ESTABLISHED

    # ------------------------------------------------------------------
    # Message delivery
    # ------------------------------------------------------------------
    def deliver(self, message: UpdateMessage) -> None:
        """Deliver an UPDATE over the session."""
        if not self.is_established:
            raise SessionError(
                f"cannot deliver UPDATE on a session in state {self.state.value}"
            )
        self.history.append(message)
        self.updates_received += 1
        if self.on_update is not None:
            self.on_update(message)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BgpSession(AS{self.local_asn}<->AS{self.peer_asn}, "
            f"{self.session_type.value}, {self.state.value})"
        )
