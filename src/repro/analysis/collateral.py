"""Collateral-damage analysis (Fig. 2(c) and §2.3).

Given a traffic trace towards a victim, these helpers compute

* the per-interval traffic share by service port (the stacked shares of
  Fig. 2(c)),
* how much legitimate traffic a mitigation technique discards (collateral
  damage) and how much attack traffic it lets through (residual attack),
* the share of traffic that a fine-grained filter (e.g. "UDP source port
  11211") would have removed without touching legitimate traffic — the
  argument §2.3 makes for Advanced Blackholing.

Every helper reads :class:`~repro.traffic.flowtable.FlowTable` columns.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from ..mitigation.base import MitigationOutcome
from ..traffic.flowtable import FlowTable, group_sum, iter_window_masks
from ..traffic.packet import IpProtocol
from ..traffic.trace import TrafficTrace


@dataclass(frozen=True)
class PortShareSnapshot:
    """Traffic share by service port during one interval."""

    interval_start: float
    shares: dict[int, float]
    total_bytes: int

    def share_of(self, port: int) -> float:
        return self.shares.get(port, 0.0)


def port_share_timeseries(
    trace: TrafficTrace,
    interval: float,
    top_ports: Sequence[int],
    start: Optional[float] = None,
    end: Optional[float] = None,
) -> list[PortShareSnapshot]:
    """Per-interval traffic shares for the given ports (others aggregated as -1).

    This is the data behind Fig. 2(c): the share of the victim's traffic per
    application port over time, showing web ports collapsing when the
    memcached attack (port 11211) starts.
    """
    table = trace.table
    trace_start = trace.start if start is None else start
    trace_end = trace.end if end is None else end
    ports = table.service_ports()
    keys = np.where(np.isin(ports, list(top_ports)), ports.astype(np.int64), -1)
    flow_bytes = table.bytes
    return [
        _snapshot(t, group_sum(keys[window], flow_bytes[window]))
        for t, window in iter_window_masks(table, trace_start, trace_end, interval)
    ]


def _snapshot(interval_start: float, totals: dict[int, int]) -> PortShareSnapshot:
    grand_total = sum(totals.values())
    shares = (
        {port: volume / grand_total for port, volume in totals.items()}
        if grand_total
        else {}
    )
    return PortShareSnapshot(
        interval_start=interval_start, shares=shares, total_bytes=grand_total
    )


@dataclass(frozen=True)
class CollateralDamageReport:
    """How a mitigation outcome treats attack vs. legitimate traffic."""

    legitimate_bits_total: float
    attack_bits_total: float
    legitimate_bits_discarded: float
    attack_bits_discarded: float

    @property
    def collateral_damage_fraction(self) -> float:
        """Fraction of legitimate traffic that was discarded."""
        if self.legitimate_bits_total == 0:
            return 0.0
        return self.legitimate_bits_discarded / self.legitimate_bits_total

    @property
    def attack_removed_fraction(self) -> float:
        """Fraction of attack traffic that was removed."""
        if self.attack_bits_total == 0:
            return 0.0
        return self.attack_bits_discarded / self.attack_bits_total

    @property
    def residual_attack_bits(self) -> float:
        return self.attack_bits_total - self.attack_bits_discarded


def collateral_damage(outcome: MitigationOutcome) -> CollateralDamageReport:
    """Quantify collateral damage / residual attack of a mitigation outcome."""
    discarded_attack = outcome.discarded_attack_bits
    discarded_legit = outcome.collateral_damage_bits
    attack_total = discarded_attack + outcome.delivered_attack_bits
    legitimate_total = discarded_legit + outcome.delivered_legitimate_bits
    return CollateralDamageReport(
        legitimate_bits_total=legitimate_total,
        attack_bits_total=attack_total,
        legitimate_bits_discarded=discarded_legit,
        attack_bits_discarded=discarded_attack,
    )


def fine_grained_filter_potential(
    flows: Union[FlowTable, TrafficTrace],
    protocol: IpProtocol,
    src_port: int,
) -> dict[str, float]:
    """How much traffic a single (protocol, source port) filter would remove.

    Returns the removed attack share, the removed legitimate share and the
    overall removed share — quantifying the paper's observation that "most
    of the attack traffic could have been removed by more fine-grained
    filters without any collateral damage".
    """
    table = flows.table if isinstance(flows, TrafficTrace) else flows
    bits = table.bits
    attack = table.is_attack
    matched = (table.protocol == int(protocol)) & (table.src_port == src_port)
    attack_total = int(bits[attack].sum())
    legit_total = int(bits[~attack].sum())
    matched_attack = int(bits[matched & attack].sum())
    matched_legit = int(bits[matched & ~attack].sum())
    total = attack_total + legit_total
    return {
        "attack_removed_fraction": matched_attack / attack_total if attack_total else 0.0,
        "legitimate_removed_fraction": matched_legit / legit_total if legit_total else 0.0,
        "total_removed_fraction": (matched_attack + matched_legit) / total if total else 0.0,
    }
