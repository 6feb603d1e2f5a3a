"""RTBH policy-control analysis (Fig. 3(b)).

*How do prefix owners scope their RTBH announcements?*  For more than
93 % of blackholing events the owner asks **all** route-server peers to
blackhole; a small tail restricts the announcement ("All-1", "All-4", …)
or targets an explicit peer list ("20", "21" peers).  Fig. 3(b) plots the
share of announcements per category.  Whether peers *comply* (almost 70 %
do not honour the blackholing community, §2.4) is modelled by
:class:`~repro.mitigation.rtbh.RtbhService` and measured by the Fig. 3(c)
experiment.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass

from ..bgp.route_server import PolicyControl


@dataclass(frozen=True)
class PolicyControlDistribution:
    """Share of RTBH announcements per policy-control category (Fig. 3(b))."""

    counts: dict[str, int]

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def share_of(self, category: str) -> float:
        if self.total == 0:
            return 0.0
        return self.counts.get(category, 0) / self.total

    def shares(self) -> dict[str, float]:
        return {category: self.share_of(category) for category in self.counts}

    def categories_sorted(self) -> list[str]:
        """Categories ordered as in the figure: restrictive first, 'All' last,
        explicit-list categories after it."""
        def sort_key(category: str):
            if category == "All":
                return (1, 0)
            if category.startswith("All-"):
                return (0, -int(category.split("-")[1]))
            return (2, int(category))

        return sorted(self.counts, key=sort_key)


def policy_control_distribution(
    controls: Iterable[PolicyControl],
) -> PolicyControlDistribution:
    """Aggregate announcement policy controls into the Fig. 3(b) categories."""
    counter = Counter(control.category for control in controls)
    return PolicyControlDistribution(counts=dict(counter))
