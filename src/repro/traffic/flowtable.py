"""Columnar flow storage.

A :class:`FlowTable` describes one batch of flows (a 5-tuple plus
byte/packet counters, timestamps and the IXP members the traffic enters
and leaves through, like the IPFIX records the paper analyses in §2.3) as
parallel NumPy column arrays.  That lets the trace generators draw whole
intervals with single vectorized RNG calls and lets the analysis layer
compute group-bys (service port, protocol, ingress member) as array
reductions.  It is the one flow representation of the data plane.

A flow's source MAC is the MAC of its ingress member's router (the MAC
filters of RTBH policy control, Fig. 9), so it is not stored: it is the
convention ``02:00:00:00:<hh>:<ll>`` of :func:`derived_mac` over the
ingress member ASN.
"""

from __future__ import annotations

import ipaddress
import re
from collections.abc import Iterable, Iterator, Sequence
from typing import TYPE_CHECKING, Optional

import numpy as np

from ..sim.clock import check_interval

if TYPE_CHECKING:
    from ..bgp.prefix import Prefix

#: L4 ports considered "well known" when deciding a flow's service port.
_WELL_KNOWN_LIMIT = 49152

#: Column names of a table, in constructor order.
COLUMNS = (
    "src_ip",
    "dst_ip",
    "protocol",
    "src_port",
    "dst_port",
    "start",
    "duration",
    "bytes",
    "packets",
    "ingress_asn",
    "egress_asn",
    "is_attack",
)

#: Per-column storage dtypes.  Columns are packed to the smallest dtype
#: that can represent the domain: L4 ports are 16-bit by definition and
#: member ASNs fit 32 bits (the simulator only models 16/32-bit AS
#: numbers).  Packing halves the memory-bandwidth (and shared-memory
#: transport) cost of the hottest columns at city scale; consumers that
#: need wider arithmetic (e.g. the rule-index key packing) cast explicitly.
_COLUMN_DTYPES = {
    "src_ip": np.uint32,
    "dst_ip": np.uint32,
    "protocol": np.uint8,
    "src_port": np.uint16,
    "dst_port": np.uint16,
    "start": np.float64,
    "duration": np.float64,
    "bytes": np.int64,
    "packets": np.int64,
    "ingress_asn": np.int32,
    "egress_asn": np.int32,
    "is_attack": np.bool_,
}


def ip_to_int(address: str) -> int:
    """Parse a dotted-quad IPv4 address into its 32-bit integer value.

    Accepts exactly the text :class:`ipaddress.IPv4Address` accepts and
    raises ``ValueError`` on everything else.
    """
    return int(ipaddress.IPv4Address(address))


def ints_to_ips(values: np.ndarray) -> list[str]:
    """Convert an array of 32-bit integers back to dotted-quad strings."""
    return [
        "%d.%d.%d.%d" % ((v >> 24) & 255, (v >> 16) & 255, (v >> 8) & 255, v & 255)
        for v in np.asarray(values, dtype=np.int64).tolist()
    ]


def derived_mac(asn: int) -> str:
    """The MAC of member ``asn``'s router, the source MAC of its ingress flows."""
    return f"02:00:00:00:{(asn >> 8) & 0xFF:02x}:{asn & 0xFF:02x}"


_DERIVED_MAC = re.compile(r"02:00:00:00:([0-9a-f]{2}):([0-9a-f]{2})")


def derived_mac_low_bits(mac: str) -> Optional[int]:
    """The ``asn & 0xFFFF`` that :func:`derived_mac` encodes in ``mac``.

    The comparison ignores case.  ``None`` means ``mac`` is not of the
    derived form, so no ASN maps to it.
    """
    match = _DERIVED_MAC.fullmatch(mac.lower())
    if match is None:
        return None
    return int(match.group(1) + match.group(2), 16)


# ----------------------------------------------------------------------
# Shared vectorized masks
# ----------------------------------------------------------------------
# The prefix and member masks the columnar consumers share: the RTBH and
# Flowspec strategies and the QoS layer, whose
# :meth:`repro.ixp.qos.FlowMatch.matches_table` is the one five-tuple
# matcher.  They live here because everything already depends on the
# flow table.
def prefix_mask(column: np.ndarray, prefix: "Prefix") -> np.ndarray:
    """Rows of an integer IPv4 address ``column`` that fall inside ``prefix``.

    Prefix containment over a ``uint32`` address column is two integer
    comparisons; non-IPv4 prefixes match nothing (``FlowTable`` stores IPv4
    only, mirroring the scalar ``Prefix.contains_address`` version check).
    """
    if prefix.version != 4:
        return np.zeros(len(column), dtype=bool)
    low, high = prefix.int_bounds
    return (column >= low) & (column <= high)


def member_mask(column: np.ndarray, members: Iterable[int]) -> np.ndarray:
    """Rows of a member-ASN ``column`` whose ASN is in ``members``."""
    members = list(members)
    if not members:
        return np.zeros(len(column), dtype=bool)
    return np.isin(column, np.fromiter(members, dtype=np.int64, count=len(members)))


def group_sum(keys: np.ndarray, values: np.ndarray) -> dict[int, int]:
    """Sum ``values`` grouped by ``keys`` (both 1-D arrays) into a dict.

    The shared columnar group-by used by trace aggregations and the
    per-interval share analyses.
    """
    if len(keys) == 0:
        return {}
    unique, inverse = np.unique(keys, return_inverse=True)
    sums = np.bincount(inverse, weights=values)
    return {int(key): int(total) for key, total in zip(unique.tolist(), sums.tolist())}


def iter_window_masks(
    table: "FlowTable", start: float, end: float, interval: float
) -> Iterator[tuple[float, np.ndarray]]:
    """Yield ``(window_start, row_mask)`` per observation interval in [start, end).

    A row belongs to a window when the flow overlaps it (same half-open
    semantics as ``TrafficTrace.between``).
    """
    check_interval(interval)
    flow_start, flow_end = table.start, table.end
    t = start
    while t < end:
        yield t, (flow_start < t + interval) & (flow_end > t)
        t += interval


def ingress_peers(table: "FlowTable", positive_bytes: bool = False) -> set[int]:
    """Distinct non-zero ingress member ASNs of a flow table.

    ``positive_bytes`` restricts to rows that still carry bytes (the
    convention for shaped traffic: a fully-shaped flow no longer counts as
    a delivering peer).
    """
    if not len(table):
        return set()
    alive = table.ingress_asn != 0
    if positive_bytes:
        alive &= table.bytes > 0
    return set(np.unique(table.ingress_asn[alive]).tolist())


def population_bits(table: "FlowTable", attack: Optional[bool] = None) -> float:
    """Total bits of a flow table, optionally restricted by ground truth.

    ``attack`` of True/False restricts to attack/legitimate rows.
    """
    if attack is None:
        return float(table.total_bits)
    mask = table.is_attack if attack else ~table.is_attack
    return float(int(table.bytes[mask].sum()) * 8)


class FlowTable:
    """Parallel column arrays describing one batch of flows.

    All columns have equal length; one row is one flow over one
    observation interval.  A row's source MAC is :func:`derived_mac` of
    its ingress member ASN.
    """

    __slots__ = COLUMNS

    def __init__(
        self,
        src_ip: np.ndarray,
        dst_ip: np.ndarray,
        protocol: np.ndarray,
        src_port: np.ndarray,
        dst_port: np.ndarray,
        start: np.ndarray,
        duration: np.ndarray,
        bytes: np.ndarray,
        packets: np.ndarray,
        ingress_asn: np.ndarray,
        egress_asn: np.ndarray,
        is_attack: np.ndarray,
    ) -> None:
        self.src_ip = np.asarray(src_ip, dtype=np.uint32)
        self.dst_ip = np.asarray(dst_ip, dtype=np.uint32)
        self.protocol = np.asarray(protocol, dtype=np.uint8)
        self.src_port = np.asarray(src_port, dtype=np.uint16)
        self.dst_port = np.asarray(dst_port, dtype=np.uint16)
        self.start = np.asarray(start, dtype=np.float64)
        self.duration = np.asarray(duration, dtype=np.float64)
        self.bytes = np.asarray(bytes, dtype=np.int64)
        self.packets = np.asarray(packets, dtype=np.int64)
        self.ingress_asn = np.asarray(ingress_asn, dtype=np.int32)
        self.egress_asn = np.asarray(egress_asn, dtype=np.int32)
        self.is_attack = np.asarray(is_attack, dtype=np.bool_)
        length = len(self.src_ip)
        for name in COLUMNS:
            if len(getattr(self, name)) != length:
                raise ValueError(f"column {name!r} has mismatched length")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls) -> "FlowTable":
        return cls(**{name: np.empty(0, dtype=_COLUMN_DTYPES[name]) for name in COLUMNS})

    @classmethod
    def concat(cls, tables: Sequence["FlowTable"]) -> "FlowTable":
        """Concatenate tables row-wise."""
        tables = [table for table in tables if len(table)]
        if not tables:
            return cls.empty()
        if len(tables) == 1:
            return tables[0]
        columns = {
            name: np.concatenate([getattr(table, name) for table in tables])
            for name in COLUMNS
        }
        return cls(**columns)

    # ------------------------------------------------------------------
    # Basics
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.src_ip)

    def select(self, mask: np.ndarray) -> "FlowTable":
        """Row subset by boolean mask (or integer index array)."""
        return FlowTable(**{name: getattr(self, name)[mask] for name in COLUMNS})

    # ------------------------------------------------------------------
    # Derived columns
    # ------------------------------------------------------------------
    @property
    def bits(self) -> np.ndarray:
        return self.bytes * 8

    @property
    def end(self) -> np.ndarray:
        return self.start + self.duration

    @property
    def total_bytes(self) -> int:
        return int(self.bytes.sum())

    @property
    def total_bits(self) -> int:
        return self.total_bytes * 8

    def service_ports(self) -> np.ndarray:
        """The port that identifies each flow's application.

        Reflected amplification traffic carries the abused service's port as
        the *source* port; client-to-server web traffic carries it as the
        *destination* port.  Following common trace-analysis practice the
        numerically smaller, registered-range port wins, which matches how
        the paper labels the shares of Fig. 2(c) and Fig. 3(a).  Port 0
        flows (fragments) are their own class.
        """
        src, dst = self.src_port, self.dst_port
        src_known = src < _WELL_KNOWN_LIMIT
        dst_known = dst < _WELL_KNOWN_LIMIT
        both_or_neither = np.minimum(src, dst)
        out = np.where(
            src_known & ~dst_known, src, np.where(dst_known & ~src_known, dst, both_or_neither)
        )
        return np.where((src == 0) | (dst == 0), 0, out)

    def scaled(self, factor: float) -> "FlowTable":
        """Bytes and packets scaled by ``factor`` (traffic shaping).

        Bytes round to the nearest integer; a positive factor keeps at
        least one packet per row.
        """
        if factor < 0:
            raise ValueError("factor must be non-negative")
        scaled_bytes = np.rint(self.bytes * factor).astype(np.int64)
        if factor > 0:
            scaled_packets = np.maximum(1, np.rint(self.packets * factor).astype(np.int64))
        else:
            scaled_packets = np.zeros(len(self), dtype=np.int64)
        columns = {name: getattr(self, name) for name in COLUMNS}
        columns["bytes"] = scaled_bytes
        columns["packets"] = scaled_packets
        return FlowTable(**columns)

    def scaled_by(self, factors: np.ndarray) -> "FlowTable":
        """Row-wise shaping with an individual factor per row.

        :meth:`scaled` with a different factor per row (same rounding, same
        minimum-one-packet convention for positive factors), used when a
        shaping budget yields a different scale per flow.
        """
        factors = np.asarray(factors, dtype=np.float64)
        if factors.shape != (len(self),):
            raise ValueError(
                f"need one factor per row ({len(self)}), got shape {factors.shape}"
            )
        if len(factors) and factors.min() < 0:
            raise ValueError("factors must be non-negative")
        scaled_bytes = np.rint(self.bytes * factors).astype(np.int64)
        scaled_packets = np.where(
            factors > 0,
            np.maximum(1, np.rint(self.packets * factors).astype(np.int64)),
            0,
        )
        columns = {name: getattr(self, name) for name in COLUMNS}
        columns["bytes"] = scaled_bytes
        columns["packets"] = scaled_packets
        return FlowTable(**columns)
