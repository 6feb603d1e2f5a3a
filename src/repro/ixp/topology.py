"""Multi-PoP IXP topology construction.

The paper's platform is not a single switch: DE-CIX-class fabrics span
multiple datacenter PoPs, each housing several edge routers, with the
members' ports spread across them (§2.1; footnote 1 puts the 2017
platform at ~25 Tbps of connected capacity across hundreds of member
ports).  This module builds such topologies for the paper-scale
experiments: a :class:`PortSpeedMix` describes a realistic distribution
of member port capacities, :func:`make_member_population` draws a seeded
member population as a columnar
:class:`~repro.ixp.member.MemberPopulation`, and
:func:`build_multi_pop_fabric` lays out the PoPs and edge routers and
connects a population to them.

Set-up works on columns: the population is drawn as arrays, and the
fabric connects it in one
:meth:`~repro.ixp.fabric.SwitchingFabric.connect_population` call, which
places every member on the least-loaded router of its PoP (ties in
router order), so the placement is deterministic per seed.  No member
object, port or QoS policy is built until something looks it up.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..sim.rng import make_rng
from .edge_router import EdgeRouter
from .fabric import SwitchingFabric
from .hardware_profiles import HardwareProfile, l_ixp_edge_router_profile
from .member import MemberPopulation


@dataclass(frozen=True)
class PortSpeedMix:
    """A categorical distribution over member port capacities."""

    speeds_bps: Sequence[float]
    weights: Sequence[float]

    def __post_init__(self) -> None:
        if len(self.speeds_bps) != len(self.weights) or not self.speeds_bps:
            raise ValueError("speeds_bps and weights must be equal-length, non-empty")
        if any(speed <= 0 for speed in self.speeds_bps):
            raise ValueError("port speeds must be positive")
        total = float(sum(self.weights))
        if total <= 0:
            raise ValueError("weights must sum to a positive value")

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw ``count`` port capacities (bps)."""
        weights = np.asarray(self.weights, dtype=np.float64)
        return rng.choice(
            np.asarray(self.speeds_bps, dtype=np.float64),
            size=count,
            p=weights / weights.sum(),
        )


def de_cix_class_port_mix() -> PortSpeedMix:
    """A DE-CIX-class access-speed mix.

    Public IXP member lists of the era are dominated by 1G and 10G access
    ports with a substantial 100G tail carrying most of the capacity —
    consistent with ~25 Tbps of connected capacity over hundreds of
    member ports (paper footnote 1).
    """
    return PortSpeedMix(
        speeds_bps=(1e9, 10e9, 100e9),
        weights=(0.35, 0.50, 0.15),
    )


def build_multi_pop_fabric(
    pop_count: int = 4,
    routers_per_pop: int = 2,
    name: str = "l-ixp",
    platform_capacity_bps: float = 25e12,
    profile: Optional[HardwareProfile] = None,
    pop_indices: Optional[Sequence[int]] = None,
    collect_ipfix: bool = True,
    members: Optional[MemberPopulation] = None,
) -> SwitchingFabric:
    """A fabric with ``pop_count`` PoPs of ``routers_per_pop`` edge routers.

    Routers are named ``edge-<pop>-<index>`` and assigned to PoPs
    ``pop-1`` … ``pop-<pop_count>`` (the PoP naming
    :meth:`~repro.ixp.fabric.SwitchingFabric.connect_population` keys
    placement on).

    ``pop_indices`` restricts construction to a subset of the PoPs while
    keeping every router's name and PoP label identical
    to the full build — a shard-local fabric built for PoPs ``(2, 5)`` of
    a ten-PoP platform is indistinguishable, router for router, from
    those PoPs inside the full fabric.  ``collect_ipfix`` passes through
    to :class:`~repro.ixp.fabric.SwitchingFabric`.

    ``members``, when given, is connected in row order by one
    :meth:`~repro.ixp.fabric.SwitchingFabric.connect_population` call;
    a member whose PoP index falls outside ``1..pop_count`` raises
    ``ValueError``.
    """
    if pop_count < 1 or routers_per_pop < 1:
        raise ValueError("pop_count and routers_per_pop must be positive")
    if members is not None:
        members.check_pops(pop_count)
    if pop_indices is None:
        pop_indices = range(1, pop_count + 1)
    else:
        pop_indices = sorted(int(index) for index in pop_indices)
        if not pop_indices:
            raise ValueError("pop_indices must be non-empty when given")
        if pop_indices[0] < 1 or pop_indices[-1] > pop_count:
            raise ValueError(
                f"pop_indices must fall within 1..{pop_count}, got {pop_indices}"
            )
    fabric = SwitchingFabric(
        name=name,
        platform_capacity_bps=platform_capacity_bps,
        collect_ipfix=collect_ipfix,
    )
    profile = profile if profile is not None else l_ixp_edge_router_profile()
    for pop_index in pop_indices:
        for router_index in range(1, routers_per_pop + 1):
            fabric.add_edge_router(
                EdgeRouter(
                    name=f"edge-{pop_index}-{router_index}",
                    profile=profile,
                    pop=f"pop-{pop_index}",
                )
            )
    if members is not None:
        fabric.connect_population(members)
    return fabric


def make_member_population(
    member_count: int,
    pop_count: int = 4,
    base_asn: int = 65000,
    port_mix: Optional[PortSpeedMix] = None,
    honors_rtbh_fraction: float = 0.30,
    seed: Optional[int] = None,
) -> MemberPopulation:
    """Draw a seeded member population spread over the PoPs.

    Members are ASes ``base_asn``, ``base_asn + 1``, …; port capacities
    come from ``port_mix`` (DE-CIX-class by default), PoP assignment is
    uniform, and ``honors_rtbh_fraction`` of the members honour RTBH
    signals (the paper's §2.4 compliance finding: ~70 % do not).  The
    result is four columns; no member object is built.
    """
    if member_count < 1:
        raise ValueError("member_count must be positive")
    if not 0.0 <= honors_rtbh_fraction <= 1.0:
        raise ValueError("honors_rtbh_fraction must be within [0, 1]")
    rng = make_rng(seed)
    mix = port_mix if port_mix is not None else de_cix_class_port_mix()
    capacities = mix.sample(rng, member_count)
    pops = rng.integers(1, pop_count + 1, size=member_count)
    honors = rng.random(member_count) < honors_rtbh_fraction
    return MemberPopulation(
        asns=np.arange(base_asn, base_asn + member_count, dtype=np.int64),
        port_capacity_bps=capacities,
        pops=pops,
        honors_rtbh=honors,
        base_asn=base_asn,
    )
