"""Combining Advanced Blackholing with a traffic scrubbing service (paper §6).

The discussion section argues that Advanced Blackholing composes well with
scrubbing: attacks with a known L2–L4 signature are dropped at the IXP for
free, and only the remaining (unclassified) traffic — optionally capped to a
bounded sample — is diverted to the expensive scrubbing centre.  This both
reduces the scrubbing bill and frees scrubbing capacity for deep packet
inspection of unknown attacks.

:class:`CombinedMitigation` implements that pipeline:

1. a set of blackholing rules (pre-filters) is applied first — matching
   traffic is discarded (or shaped) at the IXP at no cost,
2. what remains is handed to a :class:`~repro.mitigation.scrubbing.ScrubbingMitigation`
   instance, whose per-gigabyte cost is accounted,
3. the result reports both the traffic outcome and the scrubbing cost, so
   the cost-saving claim of §6 can be quantified against scrubbing alone.

The pipeline is columnar end to end: pre-filter rules are resolved as
vectorized masks (most specific rule wins per row), the bounded shaping of
a sampled residue is a per-row factor vector, and the remainder is handed
to the scrubber as one :class:`~repro.traffic.flowtable.FlowTable` (the
untouched rows first, then the shaped samples).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..core.rules import BlackholingRule
from ..ixp.qos import FilterAction
from ..sim.clock import check_interval
from ..traffic.flowtable import FlowTable, population_bits
from .base import Dimension, MitigationOutcome, MitigationTechnique, Rating
from .scrubbing import ScrubbingMitigation


@dataclass
class CombinedOutcome:
    """Outcome of the Stellar + scrubbing pipeline for one interval."""

    outcome: MitigationOutcome
    #: Bits removed by the IXP pre-filters (no scrubbing cost incurred).
    prefiltered_bits: float
    #: Bits that were diverted to (and processed by) the scrubbing centre.
    scrubbed_bits: float
    #: Monetary cost of the scrubbed volume for this interval.
    scrubbing_cost: float


class CombinedMitigation(MitigationTechnique):
    """Advanced Blackholing pre-filters in front of a scrubbing service."""

    name = "Advanced Blackholing + TSS"
    ratings = {
        Dimension.GRANULARITY: Rating.ADVANTAGE,
        Dimension.SIGNALING_COMPLEXITY: Rating.ADVANTAGE,
        Dimension.COOPERATION: Rating.ADVANTAGE,
        Dimension.RESOURCE_SHARING: Rating.ADVANTAGE,
        Dimension.TELEMETRY: Rating.ADVANTAGE,
        Dimension.SCALABILITY: Rating.ADVANTAGE,
        Dimension.RESOURCES: Rating.NEUTRAL,
        Dimension.PERFORMANCE: Rating.ADVANTAGE,
        Dimension.REACTION_TIME: Rating.ADVANTAGE,
        Dimension.COSTS: Rating.NEUTRAL,
    }

    def __init__(
        self,
        prefilter_rules: Sequence[BlackholingRule],
        scrubbing: ScrubbingMitigation,
    ) -> None:
        self.prefilter_rules = list(prefilter_rules)
        self.scrubbing = scrubbing
        self.total_scrubbing_cost = 0.0
        self.total_prefiltered_bits = 0.0

    # ------------------------------------------------------------------
    def add_rule(self, rule: BlackholingRule) -> None:
        """Add another IXP pre-filter (e.g. a signature learnt by the scrubber)."""
        self.prefilter_rules.append(rule)

    def _rules_by_specificity(self) -> list[BlackholingRule]:
        """Pre-filter rules, most specific first (stable among ties)."""
        return sorted(
            self.prefilter_rules,
            key=lambda rule: rule.qos.match.specificity,
            reverse=True,
        )

    # ------------------------------------------------------------------
    def apply_detailed(self, table: FlowTable, interval: float) -> CombinedOutcome:
        """Run the pipeline and report traffic outcome plus scrubbing cost."""
        check_interval(interval)
        return self._run(table, interval)

    def _partition(self, table: FlowTable, interval: float) -> MitigationOutcome:
        return self._run(table, interval).outcome

    def _run(self, table: FlowTable, interval: float) -> CombinedOutcome:
        """Masked pre-filters, then one scrubbing batch."""
        n = len(table)
        unassigned = np.ones(n, dtype=bool)
        drop_mask = np.zeros(n, dtype=bool)
        shape_mask = np.zeros(n, dtype=bool)
        scale = np.ones(n, dtype=np.float64)
        bits = table.bits
        # Most specific rule first: each rule claims the rows no earlier
        # (more specific) rule matched.
        for rule in self._rules_by_specificity():
            if not unassigned.any():
                break
            matched = unassigned & rule.qos.match.matches_table(table)
            if not matched.any():
                continue
            unassigned &= ~matched
            if rule.qos.action is FilterAction.DROP:
                drop_mask |= matched
            else:
                # Shaped sample: the bounded residue continues to the scrubber
                # (and ultimately the victim), the excess is dropped at the IXP.
                budget_bits = rule.qos.shape_rate_bps * interval
                shape_mask |= matched
                safe_bits = np.where(bits > 0, bits, 1)
                scale = np.where(
                    matched,
                    np.where(bits > 0, np.minimum(1.0, budget_bits / safe_bits), 0.0),
                    scale,
                )

        shaped = table.select(shape_mask).scaled_by(scale[shape_mask])
        excess_mask = shape_mask & (scale < 1.0)
        excess = table.select(excess_mask).scaled_by(1.0 - scale[excess_mask])
        prefiltered = FlowTable.concat([table.select(drop_mask), excess])
        # The untouched remainder is scrubbed first, then the shaped samples.
        scrub_input = FlowTable.concat([table.select(unassigned), shaped])

        scrubbed = self.scrubbing.apply(scrub_input, interval)
        outcome = MitigationOutcome(
            delivered_table=scrubbed.delivered_table,
            discarded_table=FlowTable.concat([prefiltered, scrubbed.discarded_table]),
            shaped_table=scrubbed.shaped_table,
        )
        prefiltered_bits = population_bits(prefiltered)
        scrubbed_bits = population_bits(scrub_input)
        cost = self.scrubbing.cost_of_interval(scrubbed_bits)
        self.total_scrubbing_cost += cost
        self.total_prefiltered_bits += prefiltered_bits
        return CombinedOutcome(
            outcome=outcome,
            prefiltered_bits=prefiltered_bits,
            scrubbed_bits=scrubbed_bits,
            scrubbing_cost=cost,
        )


def scrubbing_cost_saving(
    table: FlowTable,
    interval: float,
    prefilter_rules: Sequence[BlackholingRule],
    scrubbing: ScrubbingMitigation,
    scrubbing_alone: ScrubbingMitigation,
) -> dict:
    """Quantify the §6 cost argument on one interval of traffic.

    Returns the scrubbed volume and cost with and without the IXP
    pre-filters, plus the relative saving.
    """
    combined = CombinedMitigation(prefilter_rules, scrubbing)
    combined_result = combined.apply_detailed(table, interval)

    alone_bits = population_bits(table)
    scrubbing_alone.apply(table, interval)
    alone_cost = scrubbing_alone.cost_of_interval(alone_bits)

    saving = 0.0 if alone_cost == 0 else 1.0 - combined_result.scrubbing_cost / alone_cost
    return {
        "scrubbed_bits_alone": alone_bits,
        "scrubbed_bits_combined": combined_result.scrubbed_bits,
        "cost_alone": alone_cost,
        "cost_combined": combined_result.scrubbing_cost,
        "cost_saving_fraction": saving,
        "prefiltered_bits": combined_result.prefiltered_bits,
    }
