"""IXP members.

An IXP member is an AS connected to the IXP's switching fabric through one
or more ports.  For the reproduction a member carries the attributes the
experiments need: its ASN, the MAC address of its peering router (MAC
filters are how RTBH policy control is enforced in hardware), its port
capacity, whether it peers via the route server, and — crucial for the
RTBH compliance analysis (§2.4) — whether it honours blackholing signals.

A city-scale platform has tens of thousands of members, but only a few of
them are ever looked at one by one.  A :class:`MemberPopulation` holds a
population as columns (ASN, port capacity, PoP index, RTBH compliance);
it builds the :class:`IxpMember` of a row only when that row is read.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Union, overload

import numpy as np


def default_mac(asn: int) -> str:
    """Deterministic locally administered MAC for a member's router."""
    if asn < 0 or asn > 0xFFFFFFFF:
        raise ValueError(f"ASN out of range: {asn}")
    return (
        f"02:00:{(asn >> 24) & 0xFF:02x}:{(asn >> 16) & 0xFF:02x}:"
        f"{(asn >> 8) & 0xFF:02x}:{asn & 0xFF:02x}"
    )


@dataclass
class IxpMember:
    """One member AS of the IXP."""

    asn: int
    name: str = ""
    #: Capacity of the member's IXP port in bits per second.
    port_capacity_bps: float = 10e9
    #: MAC address of the member's peering router.
    mac: str = ""
    #: Whether the member peers via the route server (multi-lateral peering).
    uses_route_server: bool = True
    #: Whether the member honours RTBH blackholing communities.  The paper
    #: finds that almost 70 % of members do *not* (§2.4).
    honors_rtbh: bool = False
    #: IPv4 prefixes the member originates (used to seed IRR/route server).
    prefixes: list[str] = field(default_factory=list)
    #: Identifier of the edge router / PoP the member connects to.
    pop: str = "pop-1"

    def __post_init__(self) -> None:
        if self.asn <= 0:
            raise ValueError(f"member ASN must be positive, got {self.asn}")
        if self.port_capacity_bps <= 0:
            raise ValueError("port capacity must be positive")
        if not self.name:
            self.name = f"AS{self.asn}"
        if not self.mac:
            self.mac = default_mac(self.asn)

    def __hash__(self) -> int:
        return hash(self.asn)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IxpMember(asn={self.asn}, capacity={self.port_capacity_bps / 1e9:.0f}G, "
            f"honors_rtbh={self.honors_rtbh})"
        )


def pop_index(pop_name: str) -> int:
    """The numeric index of a ``pop-<n>`` label."""
    prefix, _, suffix = pop_name.partition("-")
    if prefix != "pop" or not suffix.isdigit():
        raise ValueError(f"not a pop-<n> label: {pop_name!r}")
    return int(suffix)


@dataclass(frozen=True, eq=False)
class MemberPopulation(Sequence[IxpMember]):
    """A member population as four parallel columns.

    Row ``i`` is the member ``asns[i]`` with port capacity
    ``port_capacity_bps[i]``, PoP ``pop-<pops[i]>`` and RTBH compliance
    ``honors_rtbh[i]``.  Its other attributes follow the generated
    population's conventions: the name ``member-<asn - base_asn>``, the
    :func:`default_mac`, route-server peering and no declared prefixes.
    A member given as an object (the experimental AS of a scenario, say)
    is kept in :attr:`objects` and read back as that object.

    Indexing a row builds its :class:`IxpMember`; slicing, :meth:`take`
    and :meth:`concat` give populations and build none.
    """

    asns: np.ndarray
    port_capacity_bps: np.ndarray
    pops: np.ndarray
    honors_rtbh: np.ndarray
    base_asn: int = 65000
    #: Members given as objects, by ASN.
    objects: Mapping[int, IxpMember] = field(default_factory=dict)

    def __post_init__(self) -> None:
        columns = {
            "asns": np.asarray(self.asns, dtype=np.int64),
            "port_capacity_bps": np.asarray(self.port_capacity_bps, dtype=np.float64),
            "pops": np.asarray(self.pops, dtype=np.int64),
            "honors_rtbh": np.asarray(self.honors_rtbh, dtype=bool),
        }
        for name, column in columns.items():
            object.__setattr__(self, name, column)
        lengths = {len(column) for column in columns.values()}
        if len(lengths) > 1 or any(column.ndim != 1 for column in columns.values()):
            raise ValueError("population columns must be 1-D and of equal length")
        asns = columns["asns"]
        if len(asns) and (asns.min() <= 0 or asns.max() > 0xFFFFFFFF):
            raise ValueError("member ASNs must be positive 32-bit numbers")
        capacities = columns["port_capacity_bps"]
        if not np.all(np.isfinite(capacities) & (capacities > 0)):
            raise ValueError("port capacities must be positive and finite")
        if len(asns) and columns["pops"].min() < 1:
            raise ValueError("PoP indices start at 1")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_members(cls, members: Iterable[IxpMember]) -> "MemberPopulation":
        """The population of ``members``, each kept as its object.

        Every member's PoP must be a ``pop-<n>`` label.
        """
        members = list(members)
        return cls(
            asns=[member.asn for member in members],
            port_capacity_bps=[member.port_capacity_bps for member in members],
            pops=[pop_index(member.pop) for member in members],
            honors_rtbh=[member.honors_rtbh for member in members],
            objects={member.asn: member for member in members},
        )

    @classmethod
    def concat(cls, parts: Sequence["MemberPopulation"]) -> "MemberPopulation":
        """The rows of ``parts``, in order.

        Parts whose generated rows name members from different
        ``base_asn`` values cannot be joined.
        """
        bases = {part.base_asn for part in parts if len(part) > len(part.objects)}
        if len(bases) > 1:
            raise ValueError(f"populations with different base ASNs: {sorted(bases)}")
        objects = {asn: member for part in parts for asn, member in part.objects.items()}
        return cls(
            asns=np.concatenate([part.asns for part in parts]),
            port_capacity_bps=np.concatenate([part.port_capacity_bps for part in parts]),
            pops=np.concatenate([part.pops for part in parts]),
            honors_rtbh=np.concatenate([part.honors_rtbh for part in parts]),
            base_asn=bases.pop() if bases else parts[0].base_asn,
            objects=objects,
        )

    def take(self, rows: Union[Sequence[int], np.ndarray, slice]) -> "MemberPopulation":
        """The population of ``rows`` (indices, a mask or a slice)."""
        asns = self.asns[rows]
        objects = self.objects
        if objects:
            kept = np.isin(np.fromiter(objects, np.int64, len(objects)), asns)
            objects = {
                asn: member for (asn, member), keep in zip(objects.items(), kept) if keep
            }
        return MemberPopulation(
            asns=asns,
            port_capacity_bps=self.port_capacity_bps[rows],
            pops=self.pops[rows],
            honors_rtbh=self.honors_rtbh[rows],
            base_asn=self.base_asn,
            objects=objects,
        )

    def check_pops(self, pop_count: int) -> None:
        """Raise ``ValueError`` unless every PoP index is in ``1..pop_count``."""
        outside = (self.pops < 1) | (self.pops > pop_count)
        if outside.any():
            row = int(np.flatnonzero(outside)[0])
            raise ValueError(
                f"member AS{int(self.asns[row])} declares pop-{int(self.pops[row])}, "
                f"outside 1..{pop_count}"
            )

    # ------------------------------------------------------------------
    # Rows as members
    # ------------------------------------------------------------------
    def member(self, row: int) -> IxpMember:
        """The :class:`IxpMember` of ``row`` (built on each call)."""
        asn = int(self.asns[row])
        kept = self.objects.get(asn)
        if kept is not None:
            return kept
        return IxpMember(
            asn=asn,
            name=f"member-{asn - self.base_asn}",
            port_capacity_bps=float(self.port_capacity_bps[row]),
            pop=f"pop-{int(self.pops[row])}",
            honors_rtbh=bool(self.honors_rtbh[row]),
        )

    def __len__(self) -> int:
        return len(self.asns)

    @overload
    def __getitem__(self, index: int) -> IxpMember: ...

    @overload
    def __getitem__(self, index: slice) -> "MemberPopulation": ...

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[IxpMember, "MemberPopulation"]:
        if isinstance(index, slice):
            return self.take(index)
        if not -len(self) <= index < len(self):
            raise IndexError(f"population row {index} out of range")
        return self.member(index)

    def __iter__(self) -> Iterator[IxpMember]:
        return (self.member(row) for row in range(len(self)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MemberPopulation({len(self)} members, base_asn={self.base_asn})"
