"""Qualitative comparison of mitigation techniques (Table 1).

Builds the paper's Table 1 from the per-technique ratings declared by each
:class:`~repro.mitigation.base.MitigationTechnique` subclass, and compares
it against the transcribed paper matrix (used by the Table 1 bench and the
tests).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .base import Dimension, MitigationTechnique, Rating

#: The paper's Table 1, transcribed.  Keys are technique names as used by
#: the corresponding classes; values map dimension → rating.
PAPER_TABLE_1: dict[str, dict[Dimension, Rating]] = {
    "TSS": {
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
    },
    "ACL filters": {
        Dimension.GRANULARITY: Rating.ADVANTAGE,
        Dimension.SIGNALING_COMPLEXITY: Rating.DISADVANTAGE,
        Dimension.COOPERATION: Rating.NEUTRAL,
        Dimension.RESOURCE_SHARING: Rating.ADVANTAGE,
        Dimension.TELEMETRY: Rating.DISADVANTAGE,
        Dimension.SCALABILITY: Rating.NEUTRAL,
        Dimension.RESOURCES: Rating.DISADVANTAGE,
        Dimension.PERFORMANCE: Rating.ADVANTAGE,
        Dimension.REACTION_TIME: Rating.DISADVANTAGE,
        Dimension.COSTS: Rating.NEUTRAL,
    },
    "RTBH": {
        Dimension.GRANULARITY: Rating.DISADVANTAGE,
        Dimension.SIGNALING_COMPLEXITY: Rating.DISADVANTAGE,
        Dimension.COOPERATION: Rating.DISADVANTAGE,
        Dimension.RESOURCE_SHARING: Rating.ADVANTAGE,
        Dimension.TELEMETRY: Rating.DISADVANTAGE,
        Dimension.SCALABILITY: Rating.ADVANTAGE,
        Dimension.RESOURCES: Rating.ADVANTAGE,
        Dimension.PERFORMANCE: Rating.ADVANTAGE,
        Dimension.REACTION_TIME: Rating.ADVANTAGE,
        Dimension.COSTS: Rating.ADVANTAGE,
    },
    "Flowspec": {
        Dimension.GRANULARITY: Rating.ADVANTAGE,
        Dimension.SIGNALING_COMPLEXITY: Rating.DISADVANTAGE,
        Dimension.COOPERATION: Rating.DISADVANTAGE,
        Dimension.RESOURCE_SHARING: Rating.DISADVANTAGE,
        Dimension.TELEMETRY: Rating.NEUTRAL,
        Dimension.SCALABILITY: Rating.ADVANTAGE,
        Dimension.RESOURCES: Rating.DISADVANTAGE,
        Dimension.PERFORMANCE: Rating.ADVANTAGE,
        Dimension.REACTION_TIME: Rating.ADVANTAGE,
        Dimension.COSTS: Rating.ADVANTAGE,
    },
    "Advanced Blackholing": {
        Dimension.GRANULARITY: Rating.ADVANTAGE,
        Dimension.SIGNALING_COMPLEXITY: Rating.ADVANTAGE,
        Dimension.COOPERATION: Rating.ADVANTAGE,
        Dimension.RESOURCE_SHARING: Rating.ADVANTAGE,
        Dimension.TELEMETRY: Rating.ADVANTAGE,
        Dimension.SCALABILITY: Rating.ADVANTAGE,
        Dimension.RESOURCES: Rating.ADVANTAGE,
        Dimension.PERFORMANCE: Rating.ADVANTAGE,
        Dimension.REACTION_TIME: Rating.ADVANTAGE,
        Dimension.COSTS: Rating.ADVANTAGE,
    },
}

#: Column order of the paper's table.
TECHNIQUE_ORDER = ("TSS", "ACL filters", "RTBH", "Flowspec", "Advanced Blackholing")


@dataclass(frozen=True)
class ComparisonTable:
    """The assembled comparison matrix."""

    techniques: tuple[str, ...]
    ratings: dict[str, dict[Dimension, Rating]]

    def rating(self, technique: str, dimension: Dimension) -> Rating:
        return self.ratings[technique][dimension]

    def matches_paper(self) -> bool:
        """True if every cell agrees with the transcribed paper table."""
        for technique in self.techniques:
            expected = PAPER_TABLE_1.get(technique)
            if expected is None:
                return False
            for dimension in Dimension:
                if self.ratings[technique][dimension] is not expected[dimension]:
                    return False
        return True


def build_comparison_table(
    techniques: Sequence[MitigationTechnique] | None = None,
) -> ComparisonTable:
    """Assemble the comparison table from technique instances.

    When no instances are supplied the table is built from the transcribed
    paper ratings (which the techniques' declared ratings must match — the
    tests assert this consistency).
    """
    if techniques is None:
        return ComparisonTable(
            techniques=TECHNIQUE_ORDER,
            ratings={name: dict(PAPER_TABLE_1[name]) for name in TECHNIQUE_ORDER},
        )
    ratings = {technique.name: technique.rating_row() for technique in techniques}
    return ComparisonTable(
        techniques=tuple(technique.name for technique in techniques), ratings=ratings
    )
