"""Member ports on the IXP edge routers.

A :class:`MemberPort` binds an IXP member to a physical port on an edge
router.  The port owns its QoS policy (Stellar configures egress ports,
§4.5) and exposes the telemetry the blackholing users receive (forwarded
vs. dropped vs. shaped volumes) as cumulative :class:`PortCounters`.  The
counters of every port on a fabric live in one :class:`PortCounterStore`,
so the delivery pass accounts for hundreds of ports per interval in one
array operation.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .member import IxpMember
from .qos import PortQosPolicy, QosRule


@dataclass
class PortCounters:
    """Cumulative byte counters of a member port."""

    offered_bits: float = 0.0
    delivered_bits: float = 0.0
    dropped_bits: float = 0.0
    shaped_passed_bits: float = 0.0
    shaped_dropped_bits: float = 0.0
    congestion_dropped_bits: float = 0.0

#: The :class:`PortCounters` fields, in declaration order: the columns of
#: a :class:`PortCounterStore` row.
COUNTER_FIELDS = tuple(field.name for field in fields(PortCounters))


class PortCounterStore:
    """Every connected port's :class:`PortCounters`, one float64 row each.

    :meth:`add` folds a whole interval into the rows of the ports that
    carried traffic with one fancy-indexed add; each row sees the same
    IEEE float64 adds, in the same interval order, as a ``+=`` per field
    on that port's counters.
    """

    def __init__(self) -> None:
        self._rows = np.zeros((0, len(COUNTER_FIELDS)))
        self._size = 0

    def add_slots(self, count: int) -> int:
        """Reserve zeroed rows for ``count`` more ports; returns the first slot.

        The new slots are consecutive.
        """
        first = self._size
        if first + count > len(self._rows):
            grown = np.zeros((max(2 * first + 1, first + count), len(COUNTER_FIELDS)))
            grown[:first] = self._rows[:first]
            self._rows = grown
        self._size += count
        return first

    def add(self, slots: np.ndarray, deltas: np.ndarray) -> None:
        """Add ``deltas`` (one row of :data:`COUNTER_FIELDS` per slot).

        ``slots`` must not repeat: a repeated slot would receive only one
        of its rows.
        """
        self._rows[slots] += deltas

    def snapshot(self, slot: int) -> PortCounters:
        return PortCounters(*self._rows[slot].tolist())


class MemberPort:
    """A member's port on an edge router, with its egress QoS policy."""

    def __init__(self, member: IxpMember, port_id: int) -> None:
        self.member = member
        self.port_id = port_id
        self.qos = PortQosPolicy(port_capacity_bps=member.port_capacity_bps)
        #: The fabric's counter store and this port's row in it, bound
        #: when the fabric builds the port.
        self._counter_store: Optional[PortCounterStore] = None
        self.counter_slot = -1

    # ------------------------------------------------------------------
    @property
    def asn(self) -> int:
        return self.member.asn

    @property
    def capacity_bps(self) -> float:
        return self.member.port_capacity_bps

    # ------------------------------------------------------------------
    # QoS rule management (delegated to the policy)
    # ------------------------------------------------------------------
    def install_rule(self, rule: QosRule) -> None:
        self.qos.install(rule)

    def remove_rule(self, rule_id: str) -> bool:
        return self.qos.remove(rule_id)

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def bind_counters(self, store: PortCounterStore, slot: int) -> None:
        """Read the port's counters from row ``slot`` of ``store``."""
        self._counter_store = store
        self.counter_slot = slot

    @property
    def counters(self) -> PortCounters:
        """A snapshot of the port's cumulative counters (zero until connected)."""
        if self._counter_store is None:
            return PortCounters()
        return self._counter_store.snapshot(self.counter_slot)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MemberPort(port_id={self.port_id}, member=AS{self.member.asn})"
