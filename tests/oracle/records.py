"""The per-flow record form the naive references reason in.

Production has one flow representation, the columnar ``FlowTable``.  The
references in this package answer their questions flow by flow instead,
over :class:`FlowRecord`: one frozen dataclass per table row, with the
scalar helpers (``bits``, ``end``, ``overlaps``, ``scaled``) they are
written in.  :func:`to_records` and :func:`from_records` convert between
the two losslessly; :func:`record_matches` is the scalar twin of
``FlowMatch.matches_table``.

A record's source MAC is the MAC of its ingress member's router, formatted
here from the ingress ASN (``02:00:00:00:<hh>:<ll>``) and compared as a
string, so the MAC rule is checked against code production does not share.
"""

import ipaddress
from dataclasses import dataclass, replace

from repro.traffic import FlowTable, IpProtocol
from repro.traffic.flowtable import COLUMNS


@dataclass(frozen=True)
class FiveTuple:
    """The classic flow key."""

    src_ip: str
    dst_ip: str
    protocol: IpProtocol
    src_port: int = 0
    dst_port: int = 0

    def __post_init__(self):
        for name in ("src_port", "dst_port"):
            port = getattr(self, name)
            if not 0 <= port <= 65535:
                raise ValueError(f"{name} must be a valid L4 port, got {port}")


@dataclass(frozen=True)
class FlowRecord:
    """Traffic of one flow during one observation interval."""

    key: FiveTuple
    start: float
    duration: float
    bytes: int
    packets: int
    ingress_member_asn: int = 0
    egress_member_asn: int = 0
    #: Marks flows that are part of an attack (ground truth for analyses).
    is_attack: bool = False

    def __post_init__(self):
        if self.duration < 0:
            raise ValueError("duration must be non-negative")
        if self.bytes < 0 or self.packets < 0:
            raise ValueError("bytes and packets must be non-negative")

    @property
    def src_ip(self):
        return self.key.src_ip

    @property
    def dst_ip(self):
        return self.key.dst_ip

    @property
    def protocol(self):
        return self.key.protocol

    @property
    def src_port(self):
        return self.key.src_port

    @property
    def dst_port(self):
        return self.key.dst_port

    @property
    def src_mac(self):
        """The ingress member router's MAC."""
        asn = self.ingress_member_asn
        return "02:00:00:00:%02x:%02x" % ((asn >> 8) & 0xFF, asn & 0xFF)

    @property
    def end(self):
        return self.start + self.duration

    @property
    def bits(self):
        return self.bytes * 8

    def scaled(self, factor):
        """A copy with bytes/packets scaled by ``factor`` (shaping)."""
        if factor < 0:
            raise ValueError("factor must be non-negative")
        return replace(
            self,
            bytes=int(round(self.bytes * factor)),
            packets=max(1, int(round(self.packets * factor))) if factor > 0 else 0,
        )

    def overlaps(self, start, end):
        """True if the flow interval overlaps [start, end)."""
        return self.start < end and self.end > start


def to_records(table):
    """One :class:`FlowRecord` per row of ``table``, in row order."""
    rows = zip(*(getattr(table, name).tolist() for name in COLUMNS))
    return [
        FlowRecord(
            key=FiveTuple(
                src_ip=str(ipaddress.IPv4Address(src_ip)),
                dst_ip=str(ipaddress.IPv4Address(dst_ip)),
                protocol=IpProtocol(protocol),
                src_port=src_port,
                dst_port=dst_port,
            ),
            start=start,
            duration=duration,
            bytes=bytes_,
            packets=packets,
            ingress_member_asn=ingress,
            egress_member_asn=egress,
            is_attack=is_attack,
        )
        for (
            src_ip, dst_ip, protocol, src_port, dst_port, start, duration,
            bytes_, packets, ingress, egress, is_attack,
        ) in rows
    ]


def from_records(records):
    """The :class:`FlowTable` holding ``records`` as rows (IPv4 only)."""
    records = list(records)
    return FlowTable(
        src_ip=[int(ipaddress.IPv4Address(r.src_ip)) for r in records],
        dst_ip=[int(ipaddress.IPv4Address(r.dst_ip)) for r in records],
        protocol=[int(r.protocol) for r in records],
        src_port=[r.src_port for r in records],
        dst_port=[r.dst_port for r in records],
        start=[r.start for r in records],
        duration=[r.duration for r in records],
        bytes=[r.bytes for r in records],
        packets=[r.packets for r in records],
        ingress_asn=[r.ingress_member_asn for r in records],
        egress_asn=[r.egress_member_asn for r in records],
        is_attack=[r.is_attack for r in records],
    )


def record_matches(match, record):
    """Whether ``record`` meets every criterion of a ``FlowMatch``."""
    if match.dst_prefix is not None and not match.dst_prefix.contains_address(record.dst_ip):
        return False
    if match.src_prefix is not None and not match.src_prefix.contains_address(record.src_ip):
        return False
    if match.src_mac is not None and record.src_mac != match.src_mac.lower():
        return False
    if match.protocol is not None and record.protocol != match.protocol:
        return False
    if match.src_port is not None and record.src_port != match.src_port:
        return False
    if match.dst_port is not None and record.dst_port != match.dst_port:
        return False
    return True
