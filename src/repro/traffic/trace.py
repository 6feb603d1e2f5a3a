"""Traffic traces.

A :class:`TrafficTrace` is an ordered collection of flows spanning an
observation window, with the query helpers the analysis layer uses:
filtering by destination, attack/benign split and time window, the
per-protocol byte split and the set of ingress peers.

A trace wraps one columnar :class:`~repro.traffic.flowtable.FlowTable`, the
output of the vectorized generators: filters and aggregations run as NumPy
array operations, which is what makes production-scale traces tractable.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .flowtable import FlowTable, group_sum, ingress_peers, ip_to_int
from .packet import IpProtocol


class TrafficTrace:
    """An ordered collection of flows, stored as one :class:`FlowTable`."""

    def __init__(self, table: Optional[FlowTable] = None) -> None:
        if table is None:
            table = FlowTable.empty()
        elif not isinstance(table, FlowTable):
            raise TypeError(f"TrafficTrace takes a FlowTable, got {type(table).__name__}")
        self._table = table

    # ------------------------------------------------------------------
    # Representations
    # ------------------------------------------------------------------
    @property
    def table(self) -> FlowTable:
        """The columnar view."""
        return self._table

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._table)

    @property
    def start(self) -> float:
        return float(self._table.start.min()) if len(self._table) else 0.0

    @property
    def end(self) -> float:
        return float(self._table.end.max()) if len(self._table) else 0.0

    # ------------------------------------------------------------------
    # Filtering
    # ------------------------------------------------------------------
    def _select(self, mask: np.ndarray) -> "TrafficTrace":
        return TrafficTrace(self._table.select(mask))

    def towards(self, dst_ip: str) -> "TrafficTrace":
        """Flows destined to a specific IP address."""
        try:
            value = ip_to_int(dst_ip)
        except ValueError:
            return TrafficTrace()
        return self._select(self._table.dst_ip == value)

    def attack_flows(self) -> "TrafficTrace":
        return self._select(self._table.is_attack)

    def benign_flows(self) -> "TrafficTrace":
        return self._select(~self._table.is_attack)

    def between(self, start: float, end: float) -> "TrafficTrace":
        """Flows overlapping the interval [start, end)."""
        table = self._table
        return self._select((table.start < end) & (table.end > start))

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def bytes_by_protocol(self) -> dict[IpProtocol, int]:
        """Total bytes grouped by IP protocol."""
        grouped = group_sum(self._table.protocol, self._table.bytes)
        return {IpProtocol(value): total for value, total in grouped.items()}

    def share_by_protocol(self) -> dict[IpProtocol, float]:
        totals = self.bytes_by_protocol()
        grand_total = sum(totals.values())
        if grand_total == 0:
            return {}
        return {proto: value / grand_total for proto, value in totals.items()}

    def distinct_ingress_members(self) -> set[int]:
        return ingress_peers(self._table)
