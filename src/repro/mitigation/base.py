"""Common interface and qualitative attributes of DDoS mitigation techniques.

Table 1 of the paper compares five techniques along ten qualitative
dimensions (granularity, signaling complexity, cooperation, resource
sharing, telemetry, scalability, resources, performance, reaction time,
costs).  Each technique in :mod:`repro.mitigation` declares its rating per
dimension, and :mod:`repro.mitigation.comparison` assembles the table.

Quantitatively, every technique implements :class:`MitigationTechnique`:
given the flows destined to a victim during one observation interval, it
returns which flows are discarded, which are delivered, and which are
passed on in reduced (shaped) form.

The data plane is columnar and has one path: :meth:`MitigationTechnique.apply`
takes a :class:`~repro.traffic.flowtable.FlowTable`, validates the
interval, and hands the table to the strategy's ``_partition``, which
splits it with vectorized masks: five-tuple matches through
:meth:`repro.ixp.qos.FlowMatch.matches_table` (the rule format lives in
:mod:`repro.ixp.qos`), prefix and member masks through
:func:`~repro.traffic.flowtable.prefix_mask` and
:func:`~repro.traffic.flowtable.member_mask`.  The
:class:`MitigationOutcome` is three ``FlowTable`` partitions.  The
per-record loops the strategies are checked against live in
``tests/oracle/mitigation.py``.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from enum import Enum

from ..sim.clock import check_interval
from ..traffic.flowtable import FlowTable, ingress_peers, population_bits


class Rating(Enum):
    """Qualitative rating used by Table 1."""

    ADVANTAGE = "advantage"       # ✓ in the paper's table
    NEUTRAL = "neutral"           # •
    DISADVANTAGE = "disadvantage" # ✗

    @property
    def symbol(self) -> str:
        return {"advantage": "+", "neutral": "o", "disadvantage": "-"}[self.value]


class Dimension(Enum):
    """The comparison dimensions of Table 1 (in row order)."""

    GRANULARITY = "Granularity"
    SIGNALING_COMPLEXITY = "Signaling complexity"
    COOPERATION = "Cooperation"
    RESOURCE_SHARING = "Resource sharing"
    TELEMETRY = "Telemetry"
    SCALABILITY = "Scalability"
    RESOURCES = "Resources"
    PERFORMANCE = "Performance"
    REACTION_TIME = "Reaction time"
    COSTS = "Costs"


@dataclass(eq=False)
class MitigationOutcome:
    """Result of applying a mitigation technique to one interval of traffic.

    Three :class:`FlowTable` partitions of the interval: traffic delivered
    untouched, traffic discarded, and traffic delivered in reduced (shaped)
    form.  A partition that is not given is empty.
    """

    delivered_table: FlowTable = field(default_factory=FlowTable.empty)
    discarded_table: FlowTable = field(default_factory=FlowTable.empty)
    shaped_table: FlowTable = field(default_factory=FlowTable.empty)

    @property
    def delivered_bits(self) -> float:
        return population_bits(self.delivered_table) + population_bits(self.shaped_table)

    @property
    def discarded_bits(self) -> float:
        return population_bits(self.discarded_table)

    @property
    def delivered_attack_bits(self) -> float:
        """Attack traffic that still reaches the victim (lower is better)."""
        return population_bits(self.delivered_table, attack=True) + population_bits(
            self.shaped_table, attack=True
        )

    @property
    def collateral_damage_bits(self) -> float:
        """Legitimate traffic that was discarded (lower is better)."""
        return population_bits(self.discarded_table, attack=False)

    @property
    def discarded_attack_bits(self) -> float:
        """Attack traffic that was removed (higher is better)."""
        return population_bits(self.discarded_table, attack=True)

    @property
    def delivered_legitimate_bits(self) -> float:
        """Legitimate traffic that still reaches the victim (delivered + shaped)."""
        return population_bits(self.delivered_table, attack=False) + population_bits(
            self.shaped_table, attack=False
        )

    @property
    def delivered_peers(self) -> set[int]:
        """Distinct ingress members whose traffic still reaches the victim."""
        return ingress_peers(self.delivered_table) | ingress_peers(
            self.shaped_table, positive_bytes=True
        )


class MitigationTechnique(abc.ABC):
    """Base class for all mitigation techniques (baselines and Stellar).

    :meth:`apply` is the one data-plane entry point: it validates the
    interval and calls the strategy's :meth:`_partition`.
    """

    #: Human-readable name used in tables and reports.
    name: str = "abstract"

    #: Qualitative ratings for Table 1; subclasses override.
    ratings: dict[Dimension, Rating] = {}

    def apply(self, table: FlowTable, interval: float) -> MitigationOutcome:
        """Apply the technique to one interval (``interval`` seconds) of victim traffic."""
        check_interval(interval)
        return self._partition(table, interval)

    @abc.abstractmethod
    def _partition(self, table: FlowTable, interval: float) -> MitigationOutcome:
        """Split a validated interval into delivered / discarded / shaped."""

    def rating(self, dimension: Dimension) -> Rating:
        """The technique's rating for a dimension (NEUTRAL if unspecified)."""
        return self.ratings.get(dimension, Rating.NEUTRAL)

    def rating_row(self) -> dict[Dimension, Rating]:
        """All ratings, with NEUTRAL filled in for unspecified dimensions."""
        return {dimension: self.rating(dimension) for dimension in Dimension}
