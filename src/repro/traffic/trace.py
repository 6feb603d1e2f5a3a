"""Traffic traces.

A :class:`TrafficTrace` is an ordered collection of flows spanning an
observation window, with query helpers used by the analysis layer: binning
into time series, filtering by destination, grouping by "service port"
(the well-known port of a flow, which is how the paper's per-port traffic
shares are computed).

A trace wraps one columnar :class:`~repro.traffic.flowtable.FlowTable`, the
output of the vectorized generators: filters and aggregations run as NumPy
array operations, which is what makes production-scale traces tractable.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..sim.clock import check_interval
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
    def total_bytes(self) -> int:
        return self._table.total_bytes

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

    def towards_member(self, member_asn: int) -> "TrafficTrace":
        """Flows leaving the IXP through a specific member."""
        return self._select(self._table.egress_asn == member_asn)

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
    def bytes_by_service_port(self) -> dict[int, int]:
        """Total bytes grouped by the flows' service port."""
        return group_sum(self._table.service_ports(), self._table.bytes)

    def share_by_service_port(self, top: Optional[int] = None) -> dict[int, float]:
        """Byte share per service port; remaining ports folded into ``-1``.

        ``top`` limits the explicit entries to the ``top`` largest ports;
        the remainder is aggregated under the key ``-1`` ("others").
        """
        totals = self.bytes_by_service_port()
        grand_total = sum(totals.values())
        if grand_total == 0:
            return {}
        shares = {port: value / grand_total for port, value in totals.items()}
        if top is None or len(shares) <= top:
            return shares
        ranked = sorted(shares.items(), key=lambda item: item[1], reverse=True)
        head = dict(ranked[:top])
        head[-1] = sum(share for _, share in ranked[top:])
        return head

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

    def bytes_by_source_port(self) -> dict[int, int]:
        """Total bytes grouped by raw source port (used for Fig. 3(a))."""
        return group_sum(self._table.src_port, self._table.bytes)

    def distinct_ingress_members(self) -> set[int]:
        return ingress_peers(self._table)

    # ------------------------------------------------------------------
    # Time series
    # ------------------------------------------------------------------
    def rate_timeseries(
        self, bin_seconds: float, start: Optional[float] = None, end: Optional[float] = None
    ) -> tuple[list[float], list[float]]:
        """Aggregate bit-rate time series.

        Returns ``(bin_start_times, rates_bps)``.  A flow's bytes are spread
        uniformly over its duration and attributed to bins proportionally to
        the overlap; a zero-duration flow lands whole in the bin holding its
        start.
        """
        check_interval(bin_seconds)
        if len(self) == 0:
            return [], []
        trace_start = self.start if start is None else start
        trace_end = self.end if end is None else end
        if trace_end <= trace_start:
            return [], []
        bin_count = int((trace_end - trace_start) / bin_seconds) + 1
        times = [trace_start + i * bin_seconds for i in range(bin_count)]
        table = self._table
        flow_start, flow_duration = table.start, table.duration
        flow_end = flow_start + flow_duration
        zero = flow_duration == 0
        effective_duration = np.where(zero, bin_seconds, flow_duration)
        rates = table.bytes / effective_duration
        volumes = []
        for bin_start in times:
            bin_end = bin_start + bin_seconds
            overlap = np.minimum(flow_end, bin_end) - np.maximum(flow_start, bin_start)
            overlap = np.where(
                zero,
                np.where((bin_start <= flow_start) & (flow_start < bin_end), bin_seconds, 0.0),
                overlap,
            )
            volumes.append(float((rates * np.clip(overlap, 0.0, None)).sum()))
        rates_bps = [volume * 8 / bin_seconds for volume in volumes]
        return times, rates_bps
