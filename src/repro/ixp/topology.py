"""Multi-PoP IXP topology construction.

The paper's platform is not a single switch: DE-CIX-class fabrics span
multiple datacenter PoPs, each housing several edge routers, with the
members' ports spread across them (§2.1; footnote 1 puts the 2017
platform at ~25 Tbps of connected capacity across hundreds of member
ports).  This module builds such topologies for the paper-scale
experiments: a :class:`PortSpeedMix` describes a realistic distribution
of member port capacities, :func:`build_multi_pop_fabric` lays out the
PoPs and edge routers, and :func:`make_member_population` draws a seeded
member population over both.

Members connect through :meth:`~repro.ixp.fabric.SwitchingFabric.
connect_member`, which prefers a router in the member's PoP and
balances load inside the PoP, so the resulting port placement is
deterministic per seed.
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
from .member import IxpMember


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
    seed: Optional[int] = None,
    pop_indices: Optional[Sequence[int]] = None,
    collect_ipfix: bool = True,
    retain_reports: bool = True,
    retain_history: bool = True,
) -> SwitchingFabric:
    """A fabric with ``pop_count`` PoPs of ``routers_per_pop`` edge routers.

    Routers are named ``edge-<pop>-<index>`` and assigned to PoPs
    ``pop-1`` … ``pop-<pop_count>`` (the PoP naming
    :meth:`~repro.ixp.fabric.SwitchingFabric.connect_member` keys
    placement on).

    ``pop_indices`` restricts construction to a subset of the PoPs while
    keeping every router's name, PoP label and per-router seed identical
    to the full build — a shard-local fabric built for PoPs ``(2, 5)`` of
    a ten-PoP platform is indistinguishable, router for router, from
    those PoPs inside the full fabric.  The streaming knobs pass through
    to :class:`~repro.ixp.fabric.SwitchingFabric`.
    """
    if pop_count < 1 or routers_per_pop < 1:
        raise ValueError("pop_count and routers_per_pop must be positive")
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
        retain_reports=retain_reports,
        retain_history=retain_history,
    )
    profile = profile if profile is not None else l_ixp_edge_router_profile()
    for pop_index in pop_indices:
        for router_index in range(1, routers_per_pop + 1):
            fabric.add_edge_router(
                EdgeRouter(
                    name=f"edge-{pop_index}-{router_index}",
                    profile=profile,
                    pop=f"pop-{pop_index}",
                    seed=None if seed is None else seed + pop_index * 100 + router_index,
                )
            )
    return fabric


def make_member_population(
    member_count: int,
    pop_count: int = 4,
    base_asn: int = 65000,
    port_mix: Optional[PortSpeedMix] = None,
    honors_rtbh_fraction: float = 0.30,
    seed: Optional[int] = None,
) -> list[IxpMember]:
    """Draw a seeded member population spread over the PoPs.

    Port capacities come from ``port_mix`` (DE-CIX-class by default), PoP
    assignment is uniform, and ``honors_rtbh_fraction`` of the members
    honour RTBH signals (the paper's §2.4 compliance finding: ~70 % do
    not).
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
    return [
        IxpMember(
            asn=base_asn + index,
            name=f"member-{index}",
            port_capacity_bps=float(capacities[index]),
            pop=f"pop-{int(pops[index])}",
            honors_rtbh=bool(honors[index]),
        )
        for index in range(member_count)
    ]
