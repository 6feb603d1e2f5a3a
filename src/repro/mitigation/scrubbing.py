"""Traffic Scrubbing Service (TSS) baseline.

Scrubbing services redirect the victim's traffic (via DNS or BGP
delegation) to scrubbing centres, classify it, and return the clean
traffic (§1.1).  The model captures the properties the paper's comparison
turns on:

* near-perfect fine-grained filtering (a configurable true-positive /
  false-positive classification accuracy),
* a finite scrubbing-capacity ceiling — Tbps-level attacks exceed it,
  at which point excess traffic is dropped indiscriminately,
* a redirection overhead modelled as an activation delay and a per-bit
  cost, which the cost-comparison ablation uses.

The data plane is columnar: the whole interval's classification verdicts
come from a single batched RNG call — one uniform draw per flow, in row
order — and boolean masks partition the table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..sim.rng import make_rng
from ..traffic.flowtable import FlowTable
from .base import Dimension, MitigationOutcome, MitigationTechnique, Rating


@dataclass
class ScrubbingCenter:
    """Capacity and accuracy description of a scrubbing deployment."""

    capacity_bps: float = 500e9
    #: Probability that an attack flow is recognised and removed.
    true_positive_rate: float = 0.98
    #: Probability that a legitimate flow is wrongly removed.
    false_positive_rate: float = 0.02
    #: Seconds between subscription/activation and effective scrubbing.
    activation_delay_seconds: float = 300.0
    #: Monetary cost per delivered gigabyte (used by the cost ablation).
    cost_per_scrubbed_gbyte: float = 0.05

    def __post_init__(self) -> None:
        # Written as `not <valid>` so NaN fails every check.
        if not self.capacity_bps > 0:
            raise ValueError("capacity_bps must be positive (inf for unlimited)")
        for name in ("true_positive_rate", "false_positive_rate"):
            value = getattr(self, name)
            if not 0 <= value <= 1:
                raise ValueError(f"{name} must lie in [0, 1]")
        if not self.activation_delay_seconds >= 0:
            raise ValueError("activation_delay_seconds must be non-negative")
        cost = self.cost_per_scrubbed_gbyte
        if not (math.isfinite(cost) and cost >= 0):
            raise ValueError("cost_per_scrubbed_gbyte must be finite and non-negative")


class ScrubbingMitigation(MitigationTechnique):
    """TSS as a mitigation technique."""

    name = "TSS"
    ratings = {
        Dimension.GRANULARITY: Rating.ADVANTAGE,
        Dimension.SIGNALING_COMPLEXITY: Rating.DISADVANTAGE,
        Dimension.COOPERATION: Rating.NEUTRAL,
        Dimension.RESOURCE_SHARING: Rating.ADVANTAGE,
        Dimension.TELEMETRY: Rating.ADVANTAGE,
        Dimension.SCALABILITY: Rating.DISADVANTAGE,
        Dimension.RESOURCES: Rating.DISADVANTAGE,
        Dimension.PERFORMANCE: Rating.DISADVANTAGE,
        Dimension.REACTION_TIME: Rating.DISADVANTAGE,
        Dimension.COSTS: Rating.DISADVANTAGE,
    }

    def __init__(
        self,
        center: ScrubbingCenter | None = None,
        active_since: float = 0.0,
        seed: int | None = None,
    ) -> None:
        self.center = center if center is not None else ScrubbingCenter()
        #: Time at which the subscription was activated; before
        #: ``active_since + activation_delay`` traffic passes unscrubbed.
        self.active_since = active_since
        self._rng = make_rng(seed)
        self.scrubbed_bits_total = 0.0

    # ------------------------------------------------------------------
    def is_effective_at(self, time: float) -> bool:
        return time >= self.active_since + self.center.activation_delay_seconds

    def cost_of_interval(self, delivered_bits: float) -> float:
        """Monetary cost of scrubbing the delivered volume of one interval."""
        gbytes = delivered_bits / 8 / 1e9
        return gbytes * self.center.cost_per_scrubbed_gbyte

    def _partition(self, table: FlowTable, interval: float) -> MitigationOutcome:
        """Vectorized scrubbing: batched verdict draws + mask partitioning."""
        interval_start = float(table.start.min()) if len(table) else 0.0
        if not self.is_effective_at(interval_start):
            return MitigationOutcome(delivered_table=table)

        offered_bits = float(table.total_bits)
        capacity_bits = self.center.capacity_bps * interval
        overflow_scale = (
            min(1.0, capacity_bits / offered_bits) if offered_bits > 0 else 1.0
        )
        admitted = table if overflow_scale >= 1.0 else table.scaled(overflow_scale)

        # One uniform draw per flow, in row order.
        draws = self._rng.random(len(table))
        threshold = np.where(
            table.is_attack,
            self.center.true_positive_rate,
            self.center.false_positive_rate,
        )
        removed = draws < threshold

        self.scrubbed_bits_total += float(admitted.bits.sum())
        if overflow_scale >= 1.0:
            return MitigationOutcome(
                delivered_table=table.select(~removed),
                discarded_table=table.select(removed),
            )
        # A kept flow leaves a discarded remainder unless rounding kept its
        # whole volume in the admitted share.
        overflow_mask = ~removed & (admitted.bytes < table.bytes)
        overflow_parts = table.select(overflow_mask).scaled(1 - overflow_scale)
        return MitigationOutcome(
            shaped_table=admitted.select(~removed),
            discarded_table=FlowTable.concat([table.select(removed), overflow_parts]),
        )
